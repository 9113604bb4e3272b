#!/usr/bin/env python3
"""Benchmark of the irid package, built from ``src/`` of the checkout.

Run from the repository root:

    python3 perfbench/run.py --workload showcase_m1024 --seed 1 \\
        --seconds 10 --trace 0

Workloads (one client, closed loop: each request starts when the previous
one has returned):

  cli_cold         cold ``python -m irid`` processes, README command
  showcase_m<M>    warm in-process ``irid_fcoi`` on the two showcase orders
                   at m = M (256, 1024, 4096 or 16384)
  domain_sweep     warm ``irid_fcoi`` over an 810-point lattice of the
                   documented parameter domain

The seed only orders the requests.  Every operation's output is checked;
an operation that raises or fails a check counts as failed.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: with ``--trace 0`` the end-to-end metrics of an
untraced run, with ``--trace 1`` the per-layer metrics of a traced run.
Earlier lines record the environment and sample counts.  README.md next
to this file explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

sys.path.insert(0, str(HERE))
from tracer import LAYER_UNITS, Tracer  # noqa: E402

SETUP_SAMPLES = 3
CAL_REF_S = 2e-3             # calibration kernel time at the reference speed
# a cold process of irid's dependencies alone: the calibration of processes
DEP_IMPORT = ["-c", "import numpy, scipy.linalg"]
DEP_REF_S = 0.5              # its wall time at the reference speed
VALIDATED_WINDOW = 0.8       # metrics window [dt, 0.8*tm], as in the pipeline
BAD_FIT = 0.1                # discrete impulse rel L2 at or above: a bad fit
IMPULSE_BOUNDS = (0.05, 0.08)  # acceptance criterion 6: discrete, continuous
ORACLE_BOUND = 1e-3

SHOWCASE_MS = (256, 1024, 4096, 16384)
SHOWCASE_MUS = (-0.4, -0.2)  # orders 1.5-0.4j and 1.5-0.2j
CLI_FLAGS = ["--lambda", "1.5", "--mu", "-0.4", "--wgc", "1", "--tm", "2"]
CLI_ARTIFACTS = ("impulse.csv", "freq.csv", "coeffs.json", "summary.txt",
                 "impulse.svg", "freq.svg")
LATTICE = {
    "lam": (0.1, 0.5, 1.0, 1.5, 1.95),
    "mu": (0.0, -0.5, -0.95),
    "wgc": (0.1, 1.0, 10.0),
    "tm": (0.5, 2.0, 20.0),
    "m": (256, 4096),
    "norder": (2, 5, 8),
}

E2E_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "oracle_rel_l2_max": "ratio",
    "good_fit_frac": "ratio",
}
PER_LAYER_UNITS = {
    **LAYER_UNITS,
    "import.irid.s": "s",
    "import.scipy_signal.s": "s",
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# -- requests ----------------------------------------------------------------

def showcase_request(mu: float, m: int):
    from irid import CfoiParams, IridRequest
    return IridRequest(params=CfoiParams(lam=1.5, mu=mu, wgc=1.0), tm=2.0,
                       wmin=0.01, wmax=100.0, norder=5, m=m)


def lattice_requests(lattice=None):
    from irid import CfoiParams, IridRequest
    lat = lattice or LATTICE
    return [IridRequest(params=CfoiParams(lam=lam, mu=mu, wgc=wgc), tm=tm,
                        wmin=0.01, wmax=100.0, norder=norder, m=m)
            for lam, mu, wgc, tm, m, norder in itertools.product(
                lat["lam"], lat["mu"], lat["wgc"], lat["tm"], lat["m"],
                lat["norder"])]


# -- output checks -----------------------------------------------------------

def _coeffs(poly):
    import numpy as np
    # a Polynomial today; a plain coefficient array is accepted as well
    return np.asarray(getattr(poly, "coeffs", poly), dtype=float)


def fingerprint(res) -> str:
    """Digest of the bits of every series and coefficient a run returns."""
    import numpy as np
    h = hashlib.sha256()
    for arr in (res.h_ref.values, res.h_d.values, res.h_c.values,
                _coeffs(res.gd.num), _coeffs(res.gd.den),
                _coeffs(res.gc.num), _coeffs(res.gc.den)):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def oracle_gap(params, times, values, tm: float, cache: dict) -> float:
    """Relative L2 gap of an impulse response to the analytic oracle on
    [dt, 0.8*tm].  ``cache`` keeps oracle samples across requests that
    differ only in what the reference inversion does not depend on."""
    import numpy as np
    from irid import cfoi_analytic_impulse
    keep = times <= VALIDATED_WINDOW * tm * (1.0 + 1e-12)
    key = (params, tm, len(times))
    exact = cache.get(key)
    if exact is None:
        exact = cache[key] = np.array([cfoi_analytic_impulse(params, float(t))
                                       for t in times[keep]])
    return float(np.linalg.norm(values[keep] - exact)
                 / np.linalg.norm(exact))


def describe(req) -> dict:
    p = req.params
    return {"lam": p.lam, "mu": p.mu, "wgc": p.wgc, "tm": req.tm, "m": req.m,
            "norder": req.norder}


class Requests:
    """First-seen facts about each distinct request, and per-op checks.

    The first run of a request fixes its reference bits, its fit error and
    its oracle gap; every later run must reproduce the bits.  With
    ``bounds`` set, the reference must also meet the acceptance bounds on
    impulse error and the oracle bound.
    """

    def __init__(self, bounds: bool):
        self.bounds = bounds
        self.seen = {}        # key -> {"fp", "rel_d", "oracle", "ok"}
        self.problems = []
        self.oracles = {}

    def check(self, key, req, res) -> bool:
        ref = self.seen.get(key)
        if ref is None:
            md, mc = res.metrics.discrete, res.metrics.continuous
            gap = oracle_gap(req.params, res.h_ref.times, res.h_ref.values,
                             req.tm, self.oracles)
            ok = True
            if self.bounds:
                ok = (md.impulse_rel_l2 <= IMPULSE_BOUNDS[0]
                      and mc.impulse_rel_l2 <= IMPULSE_BOUNDS[1]
                      and gap <= ORACLE_BOUND)
                if not ok:
                    self.problems.append(
                        f"{describe(req)}: rel L2 {md.impulse_rel_l2:.3g}/"
                        f"{mc.impulse_rel_l2:.3g}, oracle gap {gap:.3g}")
            ref = self.seen[key] = {"fp": fingerprint(res), "ok": ok,
                                    "rel_d": md.impulse_rel_l2,
                                    "oracle": gap}
            return ok
        same = fingerprint(res) == ref["fp"]
        if not same:
            self.problems.append(f"{describe(req)}: output bits changed")
        return same and ref["ok"]

    def error(self, key, req, exc):
        self.seen.setdefault(key, {"fp": None, "ok": False, "rel_d": None,
                                   "oracle": None})
        self.problems.append(f"{describe(req)}: {type(exc).__name__}: {exc}")

    def quality(self, distinct: int) -> dict:
        gaps = [r["oracle"] for r in self.seen.values()
                if r["oracle"] is not None]
        good = sum(1 for r in self.seen.values()
                   if r["rel_d"] is not None and r["rel_d"] < BAD_FIT)
        return {"oracle_rel_l2_max": max(gaps) if gaps else None,
                "good_fit_frac": good / distinct}


# -- timing ------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _calibration_data():
    import numpy as np
    rng = np.random.default_rng(0)
    return (rng.standard_normal((512, 11)), rng.standard_normal(512),
            np.linspace(1.0, 2.0, 4096) + 0j)


def calibration() -> float:
    """Wall time of a fixed reference kernel that uses nothing from irid:
    scalar complex arithmetic in Python, like the per-point transform
    callbacks, then small numpy least-squares solves and FFTs.

    The host's speed drifts by up to 2x over a minute or two (other
    tenants); the kernel slows with it, so wall time over kernel time is
    steady where wall time alone is not.
    """
    import numpy as np
    a, b, x = _calibration_data()
    start = perf_counter()
    acc = 0j
    for k in range(1, 1500):
        w = 1.0 / complex(0.5, k)
        acc += w ** 1.5 * cmath.cos(-0.4 * cmath.log(w))
    for _ in range(3):
        np.linalg.lstsq(a, b, rcond=None)
        np.fft.ifft(x)
    return perf_counter() - start


def timed(fn):
    """Run ``fn`` in this process; return its result and (wall time,
    scaled time): the wall time at the reference speed,
    ``wall * CAL_REF_S / kernel time``, the kernel timed right after."""
    start = perf_counter()
    out = fn()
    wall = perf_counter() - start
    return out, (wall, wall * CAL_REF_S / calibration())


class ProcessClock:
    """Times child processes at the reference speed.

    Each process is bracketed by cold processes that import irid's
    dependencies alone (DEP_IMPORT); the mean of the two brackets is its
    calibration, ``wall * DEP_REF_S / bracket``.  Such processes track a
    cold irid process far better than the in-process kernel does.
    """

    def __init__(self):
        self.last = self._dep_import()

    @staticmethod
    def _dep_import() -> float:
        start = perf_counter()
        subprocess.run([sys.executable] + DEP_IMPORT, cwd=ROOT,
                       env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return perf_counter() - start

    def timed(self, fn):
        start = perf_counter()
        out = fn()
        wall = perf_counter() - start
        after = self._dep_import()
        bracket = (self.last + after) / 2
        self.last = after
        return out, (wall, wall * DEP_REF_S / bracket)


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so that every
    operation runs on the CPU its calibration ran on.

    The CPUs of a small VM can run at different speeds at the same time.
    Pinned, OpenBLAS also runs one thread.  Call before numpy is imported.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def scaled(pairs):
    """Scaled times of (wall time, scaled time) pairs."""
    return [t for _, t in pairs]


def p50(xs):
    return statistics.median(xs)


def p90(xs):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def timing_metrics(pairs) -> dict:
    lat = scaled(pairs)
    return {"p50_ms": 1e3 * p50(lat), "ops_per_s": len(lat) / sum(lat),
            # too few samples beyond it, and too noisy here, to carry a bound
            "p90_ms": 1e3 * p90(lat),
            "wall_p50_ms": 1e3 * p50([wall for wall, _ in pairs])}


# -- set-up ------------------------------------------------------------------

def fresh_imports(n: int, importtime: bool) -> dict:
    """Time ``n`` fresh ``import irid`` processes; with ``importtime``,
    also read per-module import times."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + ["-c", "import irid"]
    clock = ProcessClock()
    pairs, irid_s, signal_s = [], [], []
    for _ in range(n):
        proc, pair = clock.timed(lambda: subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True))
        pairs.append(pair)
        if proc.returncode != 0:
            raise BenchError(f"import irid failed:\n{proc.stderr}")
        if importtime:
            cum = {}
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if line.startswith("import time:") and len(parts) == 3 \
                        and parts[1].strip().isdigit():
                    cum[parts[2].strip()] = int(parts[1]) * 1e-6
            irid_s.append(cum.get("irid", 0.0))
            signal_s.append(cum.get("scipy.signal", 0.0))
    out = {"setup_s": p50(scaled(pairs)),
           "setup_wall_s": [wall for wall, _ in pairs]}
    if importtime:
        out["import.irid.s"] = p50(irid_s)
        out["import.scipy_signal.s"] = p50(signal_s)
    return out


# -- warm in-process workloads -----------------------------------------------

def run_warm(ops, warmup, seconds: float, trace: bool, bounds: bool,
             distinct: int, min_ops: int) -> dict:
    """Closed loop over ``ops``, each a list of (key, request) timed as one
    operation, for ``seconds`` and never fewer than ``min_ops`` operations.
    Untimed ``warmup`` requests run first; their results become the
    references of their keys.

    Untraced: each operation is timed around its ``irid_fcoi`` calls
    alone.  Traced: each operation runs untraced and traced back to back,
    in alternating order, so the two latency sets share conditions; the
    traced results must carry the untraced bits.  ``attempted`` and
    ``failed`` count requests.
    """
    import irid

    fcoi = irid.irid_fcoi
    traced_fcoi = None
    reqs = Requests(bounds)
    tracer = Tracer()
    plain, traced = [], []
    done = attempted = failed = 0

    def run_op(fn, op):
        out = []
        for _, req in op:
            try:
                out.append(fn(req))
            except Exception as exc:  # any raise is a failed request
                out.append(exc)
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # Nyquist clamps are expected
        for (key, req), res in zip(warmup, run_op(fcoi, warmup)):
            if isinstance(res, Exception):
                reqs.error(key, req, res)
            else:
                reqs.check(key, req, res)
        traced_fcoi = tracer.root(fcoi)
        deadline = perf_counter() + seconds
        for op in ops:
            if done >= min_ops and perf_counter() >= deadline:
                break
            done += 1
            bad = set()
            order = (False, True) if done % 2 else (True, False)
            for with_trace in (order if trace else (False,)):
                if with_trace:
                    with tracer.installed():
                        results, pair = timed(
                            lambda: run_op(traced_fcoi, op))
                    traced.append(pair)
                else:
                    results, pair = timed(lambda: run_op(fcoi, op))
                    plain.append(pair)
                for (key, req), res in zip(op, results):
                    if isinstance(res, Exception):
                        reqs.error(key, req, res)
                        bad.add(key)
                    elif not reqs.check(key, req, res):
                        bad.add(key)
            attempted += len(op)
            failed += len(bad)
    out = {"attempted": attempted, "failed": failed,
           "problems": reqs.problems[:20], "samples": len(plain),
           **reqs.quality(distinct), **timing_metrics(plain),
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        out["layers"] = tracer.layer_metrics()
        out["trace.overhead"] = p50(scaled(traced)) / p50(scaled(plain))
        out["tracer"] = tracer
    return out


def showcase(m: int):
    def workload(seed: int, seconds: float, trace: bool) -> dict:
        reqs = [(mu, showcase_request(mu, m)) for mu in SHOWCASE_MUS]
        rng = random.Random(seed)

        def ops():
            block = list(reqs)
            while True:
                rng.shuffle(block)
                yield from ([r] for r in block)

        # the reference run of each request is its untimed warm-up
        return run_warm(ops(), reqs, seconds, trace, bounds=True,
                        distinct=len(reqs), min_ops=2 * len(reqs))
    return workload


def domain_sweep(seed: int, seconds: float, trace: bool,
                 lattice=None) -> dict:
    """One operation is a lattice cell: the requests sharing (lam, mu,
    wgc, tm), over every m and norder.  Single requests would make the
    latency distribution bimodal in m, with its median in the gap."""
    reqs = list(enumerate(lattice_requests(lattice)))
    lat = lattice or LATTICE
    size = len(lat["m"]) * len(lat["norder"])
    cells = [reqs[i:i + size] for i in range(0, len(reqs), size)]
    rng = random.Random(seed)

    def ops():
        while True:
            for cell in rng.sample(cells, len(cells)):
                yield rng.sample(cell, len(cell))

    # fixed warm-up: the first cell, both m, every norder
    return run_warm(ops(), cells[0], seconds, trace, bounds=False,
                    distinct=len(reqs), min_ops=len(cells))


# -- cold command line -------------------------------------------------------

def cli_cold(seed: int, seconds: float, trace: bool) -> dict:
    """Serial cold CLI processes.  The first run is the untimed reference:
    its coeffs.json metrics must equal the in-process result, and every
    later run must write byte-identical artifacts."""
    import numpy as np
    import irid

    expected = irid.irid_fcoi(showcase_request(-0.4, 1024))
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=RUNS))
    problems = []
    clock = ProcessClock()
    try:
        def run_cli(out: Path, spans: Path = None):
            shutil.rmtree(out, ignore_errors=True)
            if spans is None:
                cmd = [sys.executable, "-m", "irid"]
            else:
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans)]
            cmd += CLI_FLAGS + ["--out-dir", str(out)]
            proc, pair = clock.timed(lambda: subprocess.run(
                cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True))
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr[-500:]}")
                return pair, None
            missing = [a for a in CLI_ARTIFACTS if not (out / a).is_file()]
            if missing:
                problems.append(f"missing artifacts {missing}")
                return pair, None
            return pair, {a: (out / a).read_bytes() for a in CLI_ARTIFACTS}

        _, ref = run_cli(work / "ref")
        if ref is None:
            raise BenchError(f"reference CLI run failed: {problems}")
        coeffs = json.loads(ref["coeffs.json"])
        want = {"discrete": asdict(expected.metrics.discrete),
                "continuous": asdict(expected.metrics.continuous)}
        ref_ok = coeffs["metrics"] == want
        if not ref_ok:
            problems.append("coeffs.json metrics differ from irid_fcoi")
        rows = list(csv.reader(ref["impulse.csv"].decode().splitlines()))[1:]
        t = np.array([float(r[0]) for r in rows])
        h = np.array([float(r[1]) for r in rows])
        gap = oracle_gap(expected.request.params, t, h, expected.request.tm,
                         {})
        good = coeffs["metrics"]["discrete"]["impulse_rel_l2"] < BAD_FIT

        rng = random.Random(seed)
        traced_first = rng.random() < 0.5
        tracer = Tracer()
        plain, traced = [], []
        attempted = failed = 0
        deadline = perf_counter() + seconds
        while attempted < 2 or perf_counter() < deadline:
            attempted += 1
            ok = ref_ok
            flip = (attempted % 2 == 1) == traced_first
            for with_trace in ((flip, not flip) if trace else (False,)):
                spans = work / "spans.json" if with_trace else None
                pair, got = run_cli(work / "run", spans)
                (traced if with_trace else plain).append(pair)
                if got != ref:
                    if got is not None:
                        problems.append("artifacts differ from the first run")
                    ok = False
                if with_trace and spans.is_file():
                    tracer.merge(json.loads(spans.read_text()))
                    spans.unlink()
            failed += not ok
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {"attempted": attempted, "failed": failed,
           "problems": problems[:20], "samples": len(plain),
           "oracle_rel_l2_max": gap, "good_fit_frac": float(good),
           **timing_metrics(plain),
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    if trace:
        out["layers"] = tracer.layer_metrics()
        out["trace.overhead"] = p50(scaled(traced)) / p50(scaled(plain))
        out["tracer"] = tracer
    return out


WORKLOADS = {
    "cli_cold": cli_cold,
    **{f"showcase_m{m}": showcase(m) for m in SHOWCASE_MS},
    "domain_sweep": domain_sweep,
}


# -- environment record ------------------------------------------------------

def _blas_threads():
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and "/" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return {"library": os.path.basename(path),
                        "threads": int(getattr(lib, sym)())}
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "irid").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# -- entry point -------------------------------------------------------------

def import_irid():
    """Import irid from the checkout's sources, never from elsewhere."""
    if not (SRC / "irid" / "__init__.py").is_file():
        raise BenchError(f"no irid sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import irid
    if Path(irid.__file__).resolve().parent != (SRC / "irid").resolve():
        raise BenchError(f"imported irid from {irid.__file__}, not {SRC}")
    return irid


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run one workload and return the printed record."""
    setup = fresh_imports(SETUP_SAMPLES, importtime=trace)
    res = WORKLOADS[workload](seed, seconds, trace)
    if trace:
        values = {**res["layers"],
                  "import.irid.s": setup["import.irid.s"],
                  "import.scipy_signal.s": setup["import.scipy_signal.s"],
                  "trace.overhead": res["trace.overhead"]}
        units = PER_LAYER_UNITS
        RUNS.mkdir(exist_ok=True)
        res["tracer"].dump(RUNS / f"trace-{workload}-seed{seed}.json")
    else:
        values = {**res, "setup_s": setup["setup_s"]}
        units = E2E_UNITS
    metrics = {name: {"value": values.get(name), "unit": unit}
               for name, unit in units.items()}
    correct = res["failed"] == 0 and all(
        m["value"] is not None for m in metrics.values())
    return {
        "detail": {"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "timed_samples": res["samples"],
                   "p90_ms": res.get("p90_ms"),
                   "wall_p50_ms": res.get("wall_p50_ms"),
                   "setup_wall_s": setup["setup_wall_s"],
                   "problems": res["problems"]},
        "result": {"correct": correct, "attempted": res["attempted"],
                   "failed": res["failed"], "metrics": metrics},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_to_one_cpu()
    try:
        import_irid()
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"detail": record["detail"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
