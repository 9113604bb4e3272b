"""Command-line front end: discretize one integrator and write reports."""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import Callable, List, Optional, TextIO

from .cfoi import CfoiParams
from .errors import IridError, ParamError
from .pipeline import IridRequest, format_summary, irid_fcoi, write_outputs

__all__ = ["cli_main", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irid-cfoi",
        description="Impulse-response-invariant discretization of the "
                    "complex fractional order integrator "
                    "(wgc/s)^lambda * cos(mu*ln(wgc/s)).",
    )
    parser.add_argument("--lambda", dest="lam", type=float, required=True,
                        help="real part of the order, in (0, 2)")
    parser.add_argument("--mu", type=float, required=True,
                        help="imaginary part of the order, in (-1, 0]")
    parser.add_argument("--wgc", type=float, required=True,
                        help="gain-crossover frequency in rad/s")
    parser.add_argument("--tm", type=float, required=True,
                        help="time window end in seconds; 2*tm and "
                             "pi*(2*M + 17)/tm must be finite doubles")
    parser.add_argument("--wmin", type=float, default=0.01,
                        help="band lower edge in rad/s (default 0.01)")
    parser.add_argument("--wmax", type=float, default=100.0,
                        help="band upper edge in rad/s (default 100)")
    parser.add_argument("--norder", type=int, default=5,
                        help="model order; M*(2*norder + 2) may not exceed "
                             "2**20 * 18 (default 5)")
    parser.add_argument("--samples", type=int, default=1024, metavar="M",
                        help="inversion sample count, a power of two "
                             "from 64 to 1048576 (default 1024)")
    parser.add_argument("--points", type=int, default=200,
                        help="frequency grid size, from 2 to 1048576 "
                             "(default 200)")
    parser.add_argument("--out-dir", default="out",
                        help="output directory (default ./out)")
    parser.add_argument("--no-svg", action="store_true",
                        help="skip the SVG charts")
    return parser


def _on_stderr(write: Callable[[TextIO], object]) -> None:
    # print(file=None) would write to stdout, so a closed stderr (None, or
    # a descriptor that refuses writes) drops what would go there
    if sys.stderr is not None:
        try:
            write(sys.stderr)
        except OSError:
            pass


def _print_err(line: str) -> None:
    _on_stderr(lambda err: print(line, file=err))


def _on_stdout(write: Callable[[TextIO], object]) -> int:
    # 0, or 1 after an error line when stdout refuses the write.  A closed
    # stdout (None) is skipped, and one closed early by its reader (EPIPE,
    # `| head -1`) is not a failure.  After a refused write a stdout with a
    # descriptor goes to os.devnull, so the next flush (main's, or the
    # interpreter's exit when cli_main is embedded) cannot fail on what is
    # left in its buffer; an in-memory stream has no descriptor to redirect
    if sys.stdout is None:
        return 0
    try:
        write(sys.stdout)
    except OSError as exc:
        try:
            fd = sys.stdout.fileno()
        except ValueError:  # io.UnsupportedOperation, or a closed stream
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            _print_err(f"error: standard output: {exc}")
            return 1
    return 0


def cli_main(argv: Optional[List[str]] = None) -> int:
    """Parse flags, run the pipeline, write outputs, print the summary.

    Returns the exit code and never exits, so a program can embed the
    command: 0 success, 2 invalid input, 1 computation failure or a file
    that could not be written.  Errors and warnings are printed as one
    line each on standard error, "error: ..." and "warning: ...".  A
    closed standard output is not a failure, nor is one closed early
    (``irid-cfoi ... | head -1``): the artifacts are written before the
    summary is printed, so the rest of the summary is dropped, output goes
    to os.devnull from then on, and the exit code stays 0.  Any other
    error writing the summary (a full disk) goes to os.devnull the same
    way and is one error line, code 1.  A closed standard error drops the
    error and warning lines and keeps the code.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        request = IridRequest(
            params=CfoiParams(lam=args.lam, mu=args.mu, wgc=args.wgc),
            tm=args.tm, wmin=args.wmin, wmax=args.wmax,
            norder=args.norder, m=args.samples, npoints=args.points,
        )
        # a warning (the Nyquist clamp) as one line, like the error lines,
        # also when a stage then fails
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = irid_fcoi(request)
            finally:
                for warning in caught:
                    _print_err(f"warning: {warning.message}")
        paths = write_outputs(result, args.out_dir, svg=not args.no_svg)
    except ParamError as exc:
        _print_err(f"error: {exc}")
        return 2
    except (IridError, OSError) as exc:
        _print_err(f"error: {exc}")
        return 1

    summary = "\n".join([format_summary(result), "  wrote:",
                         *(f"    {path}" for path in paths)])
    return _on_stdout(lambda out: print(summary, file=out, flush=True))


def main() -> None:
    """The ``irid-cfoi`` and ``python -m irid`` entry point: run cli_main,
    flush standard output and error, and end the process with its code.

    The process ends by ``os._exit``, which skips the interpreter's
    teardown (module finalization and the last garbage collection), a
    fixed ~20 ms of each cold run; irid registers no atexit handler and
    closes every file it writes.  The flush of standard output follows
    cli_main's rules: a closed or early-closed stdout is not a failure,
    any other write error is one error line and exit code 1.  A program
    that embeds the command calls cli_main, which returns its code.
    """
    code = cli_main()
    flushed = _on_stdout(lambda out: out.flush())
    _on_stderr(lambda err: err.flush())
    os._exit(code or flushed)
