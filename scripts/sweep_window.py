#!/usr/bin/env python3
"""Sweep the inversion window length and print the fitted fifth-order
discrete denominators.

The fitted pole layout depends on the window/sample-count pair, so this is
the knob to turn when trying to reproduce coefficient tables produced with
an unknown sample period.
"""

import argparse
import sys

import numpy as np

from irid import CfoiParams, IridRequest, irid_fcoi, is_stable_discrete


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", type=float, default=1.5)
    ap.add_argument("--mu", type=float, default=-0.4)
    ap.add_argument("--wgc", type=float, default=1.0)
    ap.add_argument("--norder", type=int, default=5)
    ap.add_argument("--samples", type=int, default=256)
    ap.add_argument("--tm", type=float, nargs="+", default=[1.0, 2.0, 5.0, 10.0])
    args = ap.parse_args()

    params = CfoiParams(args.lam, args.mu, args.wgc)
    print(f"order {args.lam:g}{args.mu:+g}j, wgc={args.wgc:g}, "
          f"norder={args.norder}, m={args.samples}")
    for tm in args.tm:
        req = IridRequest(params=params, tm=tm, wmin=0.01, wmax=60.0,
                          norder=args.norder, m=args.samples)
        res = irid_fcoi(req)
        stable, margin = is_stable_discrete(res.gd)
        den = np.array2string(res.gd.den, precision=4, suppress_small=True)
        print(f"  tm={tm:6g}  stable={str(stable):5s} margin={margin:+.4f}  "
              f"rel_l2={res.metrics.discrete.impulse_rel_l2:.2e}")
        print(f"           den={den}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
