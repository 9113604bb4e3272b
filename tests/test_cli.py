import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import irid.pipeline
from irid.cli import build_parser, cli_main
from irid.lti import DiscreteTransferFunction

SRC = Path(__file__).resolve().parent.parent / "src"
ARTIFACTS = ("impulse.csv", "freq.csv", "coeffs.json", "summary.txt",
             "impulse.svg", "freq.svg")
# the README command, without its output directory
README_ARGS = ["--lambda", "1.5", "--mu", "-0.4", "--wgc", "1", "--tm", "2",
               "--wmin", "0.01", "--wmax", "100", "--norder", "5"]


# a quick run: 128 samples, a band below the Nyquist clamp
SMALL_ARGS = ["--lambda", "1.5", "--mu", "-0.4", "--wgc", "1", "--tm", "2",
              "--wmin", "0.01", "--wmax", "40", "--norder", "5",
              "--samples", "128"]


def run(tmp_path, *extra):
    return cli_main(SMALL_ARGS + ["--out-dir", str(tmp_path / "out"),
                                  *extra])


def test_successful_run(tmp_path, capsys):
    assert run(tmp_path) == 0
    out_dir = tmp_path / "out"
    for name in ARTIFACTS:
        assert (out_dir / name).exists()
    stdout = capsys.readouterr().out
    assert ("  discrete model:\n"
            "    impulse vs NILT reference   rel L2: ") in stdout
    assert "    frequency vs exact G(jw)    mag max err: " in stdout
    coeffs = json.loads((out_dir / "coeffs.json").read_text())
    assert len(coeffs["discrete"]["den"]) == 6


def test_no_svg_flag(tmp_path):
    # the charts are dropped, and the other four artifacts match a default
    # run's byte for byte
    assert run(tmp_path) == 0
    assert run(tmp_path, "--no-svg", "--out-dir", str(tmp_path / "nosvg")) == 0
    assert sorted(p.name for p in (tmp_path / "nosvg").iterdir()) == sorted(
        ARTIFACTS[:4])
    for name in ARTIFACTS[:4]:
        assert ((tmp_path / "nosvg" / name).read_bytes()
                == (tmp_path / "out" / name).read_bytes()), name


def test_negative_zero_mu_prints_as_positive_zero(tmp_path, capsys):
    assert run(tmp_path, "--mu", "-0") == 0
    assert "order: 1.5 +0j " in capsys.readouterr().out
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "order: 1.5 +0j " in summary


# invalid input exits 2 with the validating message, before any file is
# written; later flags override the defaults of run()
@pytest.mark.parametrize("flags,fragment", [
    (("--lambda", "3"), "(0, 2)"),
    (("--samples", "100"), "power of two"),
    (("--norder", "0"), "norder must be >= 1"),
    (("--points", "1"), "npoints must be >= 2"),
    (("--wmin", "200"), "need 0 < wmin < wmax"),
    (("--wgc", "0"), "wgc must be positive"),
    (("--norder", "11", "--samples", "64"), "need at least 66 samples"),
    (("--out-dir", ""), "empty output directory path"),
    (("--samples", "2097152"), "power of two from 64 to 1048576"),
    (("--points", "2097152"), "npoints must be <= 1048576"),
    (("--samples", "1048576", "--norder", "100000"), "more than 18874368"),
    (("--tm", "1e-321"), "beyond the double range"),
    (("--tm", "1e-305", "--samples", "1024"), "beyond the double range"),
    (("--tm", "1e308"), "beyond the double range"),
    (("--tm", "1e308", "--wmin", "1e-320"), "beyond the double range"),
    (("--wmin", "1", "--wmax", "1.0000000000000004"),
     "band [1.0, 1.0000000000000004] is too narrow for 200 "),
], ids=["lambda", "samples", "norder0", "points1", "wmin200", "wgc0",
        "norder11", "out-dir-empty", "samples2**21", "points2**21",
        "fit-matrix-cap", "tm1e-321", "tm1e-305", "tm1e308",
        "tm1e308-wmin1e-320", "narrow-band"])
def test_invalid_input_exits_2(tmp_path, capfd, flags, fragment):
    assert run(tmp_path, *flags) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_artifact_metrics_score_every_row(tmp_path, capsys):
    # the README command: each model's impulse metrics in coeffs.json are
    # its gap to the reference over every row of impulse.csv, the relative
    # L2 to roundoff and the max abs deviation exactly, since each CSV
    # value round-trips its double
    out_dir = tmp_path / "out"
    assert cli_main(README_ARGS + ["--no-svg", "--out-dir", str(out_dir)]) == 0
    lines = (out_dir / "impulse.csv").read_text().splitlines()[1:]
    cols = np.array([[float(x) for x in line.split(",")] for line in lines])
    metrics = json.loads((out_dir / "coeffs.json").read_text())["metrics"]
    assert len(cols) == 1024
    ref = cols[:, 1]
    for col, model in ((2, "discrete"), (3, "continuous")):
        diff = ref - cols[:, col]
        got = metrics[model]
        assert got["impulse_rel_l2"] == pytest.approx(
            np.linalg.norm(diff) / np.linalg.norm(ref), rel=1e-12)
        assert got["impulse_max_abs"] == np.max(np.abs(diff))


def test_unwritable_out_dir_exits_1(tmp_path, capsys):
    # an existing regular file cannot become the output directory
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert run(tmp_path, "--out-dir", str(blocker)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err
    assert "Traceback" not in err


def test_overflowing_discrete_model_exits_1(tmp_path, capsys, monkeypatch):
    # a fit whose impulse response overflows is a failed run, not invalid
    # input: a discrete pole at z = 100 overflows within 256 samples
    def fit(h, nb, na):
        return DiscreteTransferFunction([1.0, 0.0], [1.0, -100.0], h.dt)

    monkeypatch.setattr(irid.pipeline, "stmcb_fit", fit)
    assert run(tmp_path, "--samples", "256") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fit stage failed")
    assert not (tmp_path / "out").exists()


def test_overflowing_transform_exits_1_with_one_line(tmp_path, capfd):
    # wgc**lambda overflows the transform on the Bromwich line, and
    # wgc = 1e-250 with mu = 0 makes the reference underflow to zero: plain
    # IEEE overflow and underflow, the same on every numpy/LAPACK build.
    # Each gives one error line, no traceback or warning
    for flags in (("--wgc", "1e300"), ("--mu", "0", "--wgc", "1e-250")):
        assert run(tmp_path, *flags) == 1, flags
        err = capfd.readouterr().err
        assert err.startswith("error: nilt stage failed"), flags
        assert len(err.splitlines()) == 1, flags
        assert not (tmp_path / "out").exists()


def test_nyquist_clamp_is_one_warning_line(tmp_path, capfd):
    # the clamp is printed as "warning: <message>", without the file,
    # line and source line of Python's warning format; the run succeeds,
    # and when a stage then fails the warning comes before the error
    assert run(tmp_path, "--wmax", "1e6", "--no-svg") == 0
    err = capfd.readouterr().err
    assert err == ("warning: wmax=1e+06 rad/s exceeds 180.956; clamping to "
                   "it\n")
    assert run(tmp_path / "failed", "--wmax", "1e6", "--wgc", "1e300") == 1
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("warning: wmax=1e+06 rad/s exceeds")
    assert lines[1].startswith("error: nilt stage failed")


def test_missing_required_flag(capsys):
    assert cli_main(["--lambda", "1.5"]) == 2


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "--wgc" in capsys.readouterr().out


def test_cold_import_leaves_out_heavy_scipy_modules():
    # scipy.linalg, scipy.signal and scipy.stats cost most of the command's
    # cold start; the package needs only numpy and scipy's LAPACK
    # extension, which it finds without running scipy's __init__ and loads
    # by file path, so no scipy module is imported at all
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", "import irid.cli, sys; print(sorted(m for m in "
         "sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _generated(attr) -> bool:
    func = getattr(attr, "__func__", getattr(attr, "fget", attr))
    return getattr(getattr(func, "__code__", None), "co_filename",
                   None) == "<string>"


def test_import_generates_no_code():
    # dataclasses compiles the methods it generates from source text, so
    # their code has the file name "<string>"; irid's records are declared
    # with @dataclass(init=False, repr=False, eq=False), which generates
    # none, and take their methods from irid.lti._Record
    classes = {cls for name, module in list(sys.modules.items())
               if name.split(".")[0] == "irid"
               for cls in vars(module).values() if isinstance(cls, type)
               and cls.__module__.split(".")[0] == "irid"}
    assert {"CfoiParams", "IridRequest", "IridResult", "TimeSeries"} <= {
        cls.__name__ for cls in classes}
    assert sorted(f"{cls.__qualname__}.{name}" for cls in classes
                  for name, attr in vars(cls).items() if _generated(attr)
                  ) == []


# makes the first `fails` loads of irid._flapack raise ImportError, as a
# wheel that needs its __init__ to set up its shared libraries would
FAILING_LOADS = """
import importlib.util
real_module_from_spec = importlib.util.module_from_spec
failed = []
def module_from_spec(spec):
    if spec.name == "irid._flapack" and len(failed) < {fails}:
        failed.append(spec.origin)
        raise ImportError("cannot open shared object file")
    return real_module_from_spec(spec)
importlib.util.module_from_spec = module_from_spec
"""


def test_extension_loads_again_after_importing_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", FAILING_LOADS.format(fails=1)
         + "import irid, irid.lti, sys; print(len(failed), 'scipy' in "
         "sys.modules)\n"
         "import numpy as np, scipy.linalg.lapack\n"
         "a = np.random.default_rng(0).standard_normal((6, 4))\n"
         "print(all(np.array_equal(x, y) for x, y in zip("
         "irid.lti._flapack.dgeqrt(2, a), scipy.linalg.lapack.dgeqrt(2, a))))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True", "True"]


# finds no scipy package, as where scipy is not installed
NO_SCIPY = """
import importlib.util
real_find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, *args: (
    None if name == "scipy" else real_find_spec(name, *args))
"""


@pytest.mark.parametrize("patch, named", [
    (FAILING_LOADS.format(fails=2), "failed[1]"),   # the extension's path
    (NO_SCIPY, "'scipy'"),
])
def test_import_error_names_what_it_could_not_load(patch, named):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", patch + "try:\n    import irid\n"
         f"except ImportError as exc:\n    print({named} in str(exc))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_scipy_linalg_imports_after_the_package():
    # scipy.linalg, imported after irid, loads the same extension file
    # under its own name; both modules then give the same bits
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", "import irid.cli, irid.lti, numpy as np, "
         "scipy.linalg, scipy.signal; "
         "a = np.random.default_rng(0).standard_normal((6, 4)); "
         "print(irid.lti._flapack.__name__, np.array_equal("
         "irid.lti._flapack.dgeqrt(2, a)[0], "
         "scipy.linalg.lapack.dgeqrt(2, a)[0]))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "irid._flapack True"


def run_module(args, **kwargs):
    # the command as a process: `python -m irid` runs the entry point,
    # which flushes its streams and ends the process without teardown.
    # stdout stays block-buffered, so text still in its buffer at the end
    # shows
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "irid", *args], env=env,
                          text=True, timeout=120, **kwargs)


def expected_stdout(out_dir):
    return ((out_dir / "summary.txt").read_text() + "  wrote:\n"
            + "".join(f"    {out_dir / name}\n" for name in ARTIFACTS))


def test_piped_summary_arrives_whole(tmp_path):
    # block-buffered stdout: the summary and the six paths come out whole
    out_dir = tmp_path / "out"
    proc = run_module(SMALL_ARGS + ["--out-dir", str(out_dir)],
                      capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == expected_stdout(out_dir)


def test_piped_help_arrives_whole(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    proc = run_module(["--help"], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == build_parser().format_help()


@pytest.mark.parametrize("flags, code, fragment", [
    (("--lambda", "3"), 2, "error: lambda must lie strictly inside (0, 2)"),
    (("--wgc", "1e300"), 1, "error: nilt stage failed"),
], ids=["invalid-input", "breakdown"])
def test_failing_process_prints_one_error_line(tmp_path, flags, code,
                                               fragment):
    proc = run_module(SMALL_ARGS + ["--out-dir", str(tmp_path / "out"),
                                    *flags], capture_output=True)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(fragment)
    assert not (tmp_path / "out").exists()


def run_into_closed_pipe(args):
    # stdout is a pipe whose read end is already closed, as after
    # `irid-cfoi ... | head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_module(args, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)


def test_closed_stdout_exits_zero(tmp_path):
    # printing the summary hits EPIPE after the artifacts are written
    out_dir = tmp_path / "out"
    proc = run_into_closed_pipe(SMALL_ARGS + ["--out-dir", str(out_dir)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(ARTIFACTS)


def test_help_into_closed_stdout_exits_zero():
    # the help text hits EPIPE only when the entry point flushes it
    proc = run_into_closed_pipe(["--help"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# the closed-descriptor cases close fd 1 or 2 in the child between fork
# and exec, as the shell's `>&-` and `2>&-` do
posix_only = pytest.mark.skipif(
    os.name != "posix", reason="closing a descriptor of the child between "
    "fork and exec needs preexec_fn, which is POSIX-only")


@posix_only
def test_closed_stdout_descriptor_exits_zero(tmp_path):
    # `irid-cfoi ... >&-`: Python starts with sys.stdout None
    out_dir = tmp_path / "out"
    proc = run_module(SMALL_ARGS + ["--out-dir", str(out_dir)],
                      stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(ARTIFACTS)


# a closed stderr drops the error and warning lines and keeps the exit
# code and the summary: `2>&-` starts Python with sys.stderr None, and a
# read-only descriptor 2 refuses each write with EBADF, as where a
# wrapper script opened itself on the free descriptor 2
@pytest.mark.parametrize("closed", [
    pytest.param("descriptor", marks=posix_only), "read-only"])
@pytest.mark.parametrize("flags, code", [
    (("--lambda", "3"), 2),
    (("--wgc", "1e300"), 1),
    (("--wmax", "1e6"), 0),
], ids=["invalid-input", "breakdown", "warning"])
def test_closed_stderr_keeps_the_exit_code(tmp_path, closed, flags, code):
    out_dir = tmp_path / "out"
    args = SMALL_ARGS + ["--out-dir", str(out_dir), *flags]
    if closed == "descriptor":
        proc = run_module(args, stdout=subprocess.PIPE,
                          preexec_fn=lambda: os.close(2))
    else:
        with open(os.devnull, "rb") as read_only:
            proc = run_module(args, stdout=subprocess.PIPE,
                              stderr=read_only)
    assert proc.returncode == code
    assert proc.stdout == (expected_stdout(out_dir) if code == 0 else "")



# /dev/full refuses each write with ENOSPC: unlike a reader that closed
# its end early, a failure, one error line and code 1.  The help text is
# still buffered when cli_main returns, so main's own flush meets it
@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, a device that refuses every "
                    "write (Linux)")
@pytest.mark.parametrize("help_text", [False, True], ids=["summary", "help"])
def test_stdout_refusing_writes_exits_1_with_one_line(tmp_path, help_text):
    out_dir = tmp_path / "out"
    args = ["--help"] if help_text else SMALL_ARGS + ["--out-dir",
                                                      str(out_dir)]
    with open("/dev/full", "w") as full:
        proc = run_module(args, stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 1
    assert proc.stderr == ("error: standard output: [Errno 28] "
                           "No space left on device\n")
    if not help_text:
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(ARTIFACTS)


class FullMemoryStream(io.StringIO):
    """An in-memory standard output, without a descriptor, that refuses
    every write as a full disk would."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_in_memory_stdout_refusing_writes_exits_1_with_one_line(
        tmp_path, capsys, monkeypatch):
    # a program that embeds cli_main with its own sys.stdout: nothing to
    # redirect to os.devnull, still one error line and code 1
    monkeypatch.setattr(sys, "stdout", FullMemoryStream())
    assert run(tmp_path) == 1
    assert capsys.readouterr().err == ("error: standard output: [Errno 28] "
                                       "No space left on device\n")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        ARTIFACTS)


def test_processes_write_the_same_bytes_under_one_and_two_blas_threads(
        tmp_path):
    # the README command at m = 16384, as a fresh process under one and
    # then two OpenBLAS threads: each exits 0 with stderr empty (nothing
    # warns but the Nyquist clamp, which its band does not reach) and
    # writes the six artifacts, and both write the same bytes.  BLAS splits
    # the dot product of a long vector across its threads, in an order set
    # by their number, so a sum of squares taken by BLAS would differ
    written = []
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "irid", *README_ARGS, "--samples", "16384",
             "--out-dir", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(ARTIFACTS)
        written.append({name: (out_dir / name).read_bytes()
                        for name in ARTIFACTS})
    assert all(written[0].values())
    assert written[0] == written[1]
