"""Rational model fitting from sampled impulse responses.

A one-shot linear-prediction (Prony) fit initializes the Steiglitz-McBride
iteration, which refines numerator and denominator by linear least squares
on data filtered through the previous pass's all-pole filter 1/A(z).  A
bilinear (Tustin) substitution converts the fitted discrete model to a
continuous one of the same order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvaluationError, ParamError
from .lti import (ContinuousTransferFunction, DiscreteTransferFunction,
                  TimeSeries, _allpole)

__all__ = ["prony_init", "stmcb_fit", "bilinear_d2c"]


def _check_orders(nb: int, na: int) -> None:
    if nb < 0:
        raise ParamError(f"nb must be >= 0, got {nb!r}")
    if na < 1:
        raise ParamError(f"na must be >= 1, got {na!r}")


def _check_fit(n: int, nb: int, na: int, iterations: int) -> None:
    """Raise ParamError unless :func:`stmcb_fit` can fit a (nb, na) model
    to ``n`` samples in ``iterations`` passes."""
    _check_orders(nb, na)
    if iterations < 1:
        raise ParamError(f"iterations must be >= 1, got {iterations!r}")
    if n < 3 * (nb + na):
        raise ParamError(f"need at least {3 * (nb + na)} samples, got {n}")


def _lstsq(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least squares via orthogonal factorization (SVD); minimum-norm on
    rank-deficient systems.  A degenerate all-zero system has no usable
    solution and raises EvaluationError."""
    if not np.any(mat):
        raise EvaluationError("all-zero regression matrix")
    sol, _, _, _ = np.linalg.lstsq(mat, rhs, rcond=None)
    return sol


def _lagged(x: np.ndarray, lags: range,
            out: np.ndarray | None = None) -> np.ndarray:
    """x delayed by each lag, zero prehistory, one lag per column of
    ``out`` (a new array when None)."""
    n = len(x)
    if out is None:
        out = np.empty((n, len(lags)))
    for col, lag in zip(out.T, lags):
        col[:lag] = 0.0
        col[lag:] = x[:n - lag]
    return out


def prony_init(h: TimeSeries, nb: int, na: int) -> DiscreteTransferFunction:
    """One-shot rational fit of an impulse response.

    The denominator comes from linear prediction on samples nb+1 onward
    (each predicted from the previous na); the numerator from the first
    nb + 1 terms of the convolution identity b = a * h.
    """
    _check_orders(nb, na)
    y = h.values
    n = len(y)
    if n < nb + na + 2:
        raise ParamError(f"need at least {nb + na + 2} samples, got {n}")
    rows = _lagged(y, range(1, na + 1))[nb + 1:]
    a_tail = _lstsq(rows, -y[nb + 1:])
    a = np.concatenate(([1.0], a_tail))
    b = np.convolve(a, y)[:nb + 1]
    return DiscreteTransferFunction(b, a, h.dt)


def stmcb_fit(h: TimeSeries, nb: int, na: int,
              iterations: int = 5) -> DiscreteTransferFunction:
    """Fit a discrete rational model to an impulse response by
    Steiglitz-McBride iteration.

    ``nb`` and ``na`` are the numerator and denominator degrees (nb >= 0,
    na >= 1) and ``iterations`` the number of passes (>= 1); at least
    3*(nb + na) samples are needed, else ParamError.

    Starting from :func:`prony_init`, each pass filters the data and the
    unit impulse together, as two columns of one triangular solve, through
    1/A(z) of the previous pass (zero initial state), then solves one joint
    least-squares problem for all numerator coefficients and the trailing
    denominator coefficients (a0 pinned at one), minimizing
    ||A(z)*h_f - B(z)*delta_f|| over all samples.

    Noiseless data from a model inside the (nb, na) class is recovered to
    roundoff; the iteration is then a fixed point.  No stabilization is
    applied: data that grows without bound fits to a model with poles
    outside the unit circle, and the stability flag is left to the caller
    (see :func:`irid.lti.is_stable_discrete`).
    """
    y = h.values
    n = len(y)
    _check_fit(n, nb, na, iterations)
    init = prony_init(h, nb, na)
    a, b = init.den, init.num
    # columns: the data and the unit impulse
    data = np.zeros((n, 2), order="F")
    data[:, 0] = y
    data[0, 1] = 1.0
    # regression matrix [-lagged h_f | lagged delta_f], rewritten each pass
    mat = np.empty((n, na + nb + 1), order="F")
    for it in range(iterations):
        hf, xf = _allpole(a, data).T
        if not (np.all(np.isfinite(hf)) and np.all(np.isfinite(xf))):
            raise EvaluationError(f"prefiltered data overflowed "
                                  f"(iteration {it})")
        # negated after lagging: the -0.0 prehistory sets lstsq's
        # Householder signs, so negating hf first changes the fit's last bits
        lagged_hf = _lagged(hf, range(1, na + 1), out=mat[:, :na])
        np.negative(lagged_hf, out=lagged_hf)
        _lagged(xf, range(0, nb + 1), out=mat[:, na:])
        sol = _lstsq(mat, hf)
        if not np.all(np.isfinite(sol)):
            raise EvaluationError(f"least-squares solution is non-finite "
                                  f"(iteration {it})")
        a = np.concatenate(([1.0], sol[:na]))
        b = sol[na:]
    return DiscreteTransferFunction(b, a, h.dt)


def bilinear_d2c(g: DiscreteTransferFunction) -> ContinuousTransferFunction:
    """Continuous model from the exact substitution
    z = (1 + s*ts/2) / (1 - s*ts/2).

    The resulting rational function satisfies Gc(s) == Gd(z(s)) pointwise
    up to roundoff wherever both sides are defined.  A denominator root at
    z = -1 maps a pole to infinity and is rejected.
    """
    ts = g.ts
    den_at_minus1 = np.polyval(g.den, -1.0)
    if abs(den_at_minus1) <= 1e-12 * sum(abs(c) for c in g.den):
        raise EvaluationError("discrete denominator has a root at z = -1")

    # row k: ascending coefficients in x = s*ts/2 of
    # (1 + x)**k * (1 - x)**(deg - k), the image of z**k once the
    # denominator (1 - x)**deg of the substitution is cleared
    deg = max(len(g.num), len(g.den)) - 1
    basis = np.array([np.convolve([math.comb(k, j) for j in range(k + 1)],
                                  [(-1) ** j * math.comb(deg - k, j)
                                   for j in range(deg - k + 1)])
                      for k in range(deg + 1)], dtype=float)
    powers = (ts / 2.0) ** np.arange(deg + 1)

    def lift(coeffs: np.ndarray) -> np.ndarray:
        # coeffs[i] multiplies z**(d - i)
        d = len(coeffs) - 1
        return (coeffs @ basis[d::-1] * powers)[::-1]

    return ContinuousTransferFunction(lift(g.num), lift(g.den))
