"""Command-line front end: discretize one integrator and write reports."""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import List, Optional

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


def cli_main(argv: Optional[List[str]] = None) -> int:
    """Parse flags, run the pipeline, write outputs, print the summary.

    Exit codes: 0 success, 2 invalid input, 1 computation failure or a
    file that could not be written.  Errors and warnings are printed as
    one line each on standard error, "error: ..." and "warning: ...".  A
    standard output closed early (``irid-cfoi ... | head -1``) is not a
    failure: the artifacts are written before the summary is printed, so
    the rest of the summary is dropped, output goes to os.devnull from
    then on, and the exit code stays 0.
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
                    print(f"warning: {warning.message}", file=sys.stderr)
        paths = write_outputs(result, args.out_dir, svg=not args.no_svg)
    except ParamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        print(format_summary(result))
        print("  wrote:")
        for path in paths:
            print(f"    {path}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; send that to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0


def main() -> None:
    sys.exit(cli_main())
