"""Numerical inverse Laplace transform on a uniform time grid.

The core scheme discretizes the Bromwich integral on an extended window
T = 2*tm with a damping shift, evaluates the transform along the line
Re(s) = c and reconstructs the time samples with a single inverse FFT:

    c      = -ln(rel_err) / T,            rel_err = 1e-8
    s_n    = c + j*n*(2*pi/T),            n = 0 .. N-1,  N = 2*m
    h(t_k) = (exp(c*t_k)/T) * (2*Re(sum_n F_n e^{j*2*pi*n*k/N}) - F_0)

Only the first half of the window (t <= tm) is returned; the mirrored half
absorbs wrap-around.  The subtraction of ``F_0`` half-weights the n = 0
term (trapezoid end correction).  Two refinements sit on top:

* initial-value splitting: the limit f(0+) = lim s*F(s) is estimated from
  two line samples and carried by an exactly invertible term
  r/(s + 1/tm), removing the jump of the damped periodic extension at
  t = 0 that otherwise dominates the truncation error for step-like
  responses.
* tail acceleration ("qd", de Hoog, Knight & Stokes 1982): the truncated
  part of the series is summed by a Pade-type continued fraction built
  with the quotient-difference algorithm from a handful of extra line
  samples, which are evaluated and processed in extended precision
  because the fraction amplifies rounding in them.  It resolves
  transforms with algebraic branch points (slowly decaying spectra) and
  makes the inversion nonlinear in F.

The first returned sample sits at t = dt = tm/m; t = 0 is excluded because
impulse responses of fractional integrators with order below one diverge
there.  Accuracy is validated on [dt, 0.8*tm]; the last 20% of the window
is returned but increasingly aliasing-prone.  The transform must be
analytic for Re(s) > 0 and conjugate-symmetric (real time function);
neither is detected, only documented.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from .errors import EvaluationError, ParamError
from .lti import TimeSeries

__all__ = ["nilt"]

_REL_ERR = 1e-8  # target aliasing error; sets the damping c
_QD_TERMS = 17  # 2*P + 1 extra line samples for the continued fraction


def _qd_coeffs(d: np.ndarray) -> np.ndarray:
    """Continued-fraction coefficients for sum_i d[i] z^i via the
    quotient-difference algorithm.

    The recursion runs in the dtype of ``d`` (at least complex128), so an
    extended-precision ``d`` gives coefficients free of double rounding;
    they are returned as complex128.  The fraction is truncated at the
    first non-finite entry: the qd recursion breaks down exactly when the
    series is rational of lower order, in which case the prefix already
    represents it exactly.
    """
    p = (len(d) - 1) // 2
    if abs(d[0]) == 0.0:
        return np.zeros(1, dtype=complex)
    dtype = np.promote_types(d.dtype, np.complex128)
    cf = np.zeros(2 * p + 1, dtype=dtype)
    cf[0] = d[0]
    # rhombus rules, one q column and one e column at a time
    with np.errstate(all="ignore"):
        q = (d[1:] / d[:-1]).astype(dtype)
        e = np.zeros(len(q), dtype=dtype)
        for r in range(1, p + 1):
            e = q[1:] - q[:-1] + e[1:len(q)]
            cf[2 * r - 1], cf[2 * r] = -q[0], -e[0]
            q = q[1:-1] * e[1:] / e[:-1]
        cf = cf.astype(complex)
    bad = ~np.isfinite(cf)
    if bad.any():
        cf = cf[: int(np.argmax(bad))]
    return cf


def _qd_eval(cf: np.ndarray, z: np.ndarray) -> np.ndarray:
    if len(cf) == 0:
        return np.zeros_like(z)
    out = np.zeros_like(z)
    for i in range(len(cf) - 1, 0, -1):
        out = cf[i] * z / (1.0 + out)
    res = cf[0] / (1.0 + out)
    # isolated continued-fraction poles fall back to a zero tail estimate
    return np.where(np.isfinite(res), res, 0.0)


def _evaluate(f: Callable[[np.ndarray], np.ndarray], s: np.ndarray,
              first: int) -> np.ndarray:
    """``f`` on the line ``s`` (sample indices from ``first``), broadcast
    to its shape; raises EvaluationError at the first non-finite value."""
    F = np.broadcast_to(f(s), s.shape)
    finite = np.isfinite(F)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise EvaluationError(f"transform returned a non-finite value at "
                              f"s = {complex(s[bad]):g} (sample {first + bad})")
    return F


def _count(name: str, x) -> int:
    """``x`` as an int; raises ParamError unless it is an integral number
    (an integral float or a numpy integer is accepted, 5.7 or "5" not)."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise ParamError(f"{name} must be an integer, got {x!r}")
    return n


def _check_window(tm: float, m: int) -> Tuple[float, int]:
    """``(tm, m)`` as float and int; raises ParamError unless tm is
    positive and finite and m is a power of two >= 64."""
    tm = float(tm)
    if not (math.isfinite(tm) and tm > 0.0):
        raise ParamError(f"tm must be positive and finite, got {tm!r}")
    n = _count("m", m)
    if n < 64 or (n & (n - 1)) != 0:
        raise ParamError(f"m must be a power of two >= 64, got {m!r}")
    return tm, n


def nilt(f: Callable[[np.ndarray], np.ndarray], tm: float,
         m: int) -> TimeSeries:
    """Invert a Laplace transform to ``m`` samples on (0, tm].

    Parameters
    ----------
    f : callable
        Array transform ``s -> F(s)``, analytic for Re(s) > 0 with
        ``f(conj(s)) == conj(f(s))``.  Called once on the whole line of N
        points (complex128) and once more on the 2P+1 tail points as an
        ``np.clongdouble`` array.  A scalar return is broadcast to the
        line.  The qd tail amplifies rounding in F, so a transform that
        keeps the extended dtype gets a tail independent of double
        rounding; one that returns complex128 there gets a
        double-precision tail.
    tm : float
        Window end time in seconds, positive and finite.
    m : int
        Number of output samples, a power of two >= 64.

    Returns
    -------
    TimeSeries with t0 = dt = tm/m.

    Raises
    ------
    ParamError for an invalid ``tm`` or ``m``; EvaluationError if ``f``
    returns NaN/Inf anywhere on the line.
    """
    tm, m = _check_window(tm, m)
    T = 2.0 * tm
    c = -math.log(_REL_ERR) / T
    N = 2 * m
    dw = 2.0 * math.pi / T
    dt = tm / m
    t = np.arange(1, m + 1) * dt

    s = c + 1j * dw * np.arange(N)
    s_tail = c + 1j * dw * np.arange(N, N + _QD_TERMS).astype(np.longdouble)
    F = _evaluate(f, s, 0)
    F_tail = _evaluate(f, s_tail, N)
    peak = max(float(np.max(np.abs(F))), float(np.max(np.abs(F_tail))))

    # initial-value split: fit s*F(s) ~ f0 + f1/s on two line samples and
    # peel off f0/(s + 1/tm); skipped when the estimate is wildly out of
    # scale (improper transforms), where it would only add noise.
    sa, sb = s[N - 2], s[m - 1]
    va, vb = sa * F[N - 2], sb * F[m - 1]
    f1 = (va - vb) / (1.0 / sa - 1.0 / sb)
    r = float((va - f1 / sa).real)
    beta = 1.0 / tm
    if not math.isfinite(r) or abs(r) > 100.0 * c * max(peak, 1e-300):
        r = 0.0
    if r != 0.0:
        F = F - r / (s + beta)
        F_tail = F_tail - r / (s_tail + beta)

    # the tail sum_{n >= N} F_n z^n = z^N * sum_i F_{N+i} z^i, and
    # z^N = 1 at every sample point z = exp(2j*pi*k/N)
    z = np.exp(2j * np.pi * np.arange(1, m + 1) / N)
    core = (np.fft.ifft(F) * N)[1:m + 1] + _qd_eval(_qd_coeffs(F_tail), z)
    vals = (np.exp(c * t) / T) * (2.0 * np.real(core) - F[0].real)
    if r != 0.0:
        vals = vals + r * np.exp(-beta * t)
    return TimeSeries(dt, dt, vals)
