"""Numerical inverse Laplace transform on a uniform time grid.

The core scheme discretizes the Bromwich integral on an extended window
T = 2*tm with a damping shift, evaluates the transform along the line
Re(s) = c and reconstructs the time samples with a single inverse FFT,
a real one of length N applied to the Hermitian fold of the N line
samples (F_n + conj(F_{N-n}), a half-length spectrum), since only the
real part of the sum is needed:

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
there.  The last fifth of the window is as accurate as the rest: at
tm = 10, m = 1024 and 16384, 1/s, 1/s^2 and 1/(s^2+1) have a relative L2
error of 9.4e-9, 3.2e-8 and 1.2e-8 on (0.8*tm, tm] against 9.1e-9,
5.2e-8 and 1.0e-8 on [dt, 0.8*tm], and a max absolute error there at
most 1.1x that before it.  1/(s+1) reads 3.3e-6 relative on the last
fifth only because e^-t is ~5e-5 there; its absolute error is the
smaller one, 6.1e-10 against 1.3-1.4e-8.  The transform must be analytic
for Re(s) > 0 and conjugate-symmetric (real time function); neither is
detected, only documented.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Tuple

import numpy as np

from .errors import ParamError
from .lti import TimeSeries, _all_finite, _count, _positive

__all__ = ["nilt"]

_REL_ERR = 1e-8  # target aliasing error; sets the damping c
_QD_TERMS = 17  # 2*P + 1 extra line samples for the continued fraction
# largest sample count: at m = 2**20 and norder 8 the fit's regression
# matrix reaches its cap, sysid._MAX_FIT_ENTRIES (about 151 MB)
_MAX_M = 2 ** 20


def _qd_coeffs(d: np.ndarray) -> np.ndarray:
    """Continued-fraction coefficients for sum_i d[i] z^i via the
    quotient-difference algorithm.

    The recursion runs in the dtype of ``d`` (at least complex128), so an
    extended-precision ``d`` gives coefficients free of double rounding;
    they are returned as complex128.  The fraction is truncated at the
    first non-finite entry: the qd recursion breaks down exactly when the
    series is rational of lower order, in which case the prefix already
    represents it exactly.  A leading coefficient ``d[0]`` beyond the
    double range leaves no fraction and raises EvaluationError.
    """
    p = (len(d) - 1) // 2
    dtype = np.promote_types(d.dtype, np.complex128)
    cf = np.zeros(2 * p + 1, dtype=dtype)
    cf[0] = d[0]
    # rhombus rules, one q and one e column at a time, under nilt's errstate
    q = (d[1:] / d[:-1]).astype(dtype)
    e = np.zeros(len(q), dtype=dtype)
    for r in range(1, p + 1):
        e = q[1:] - q[:-1] + e[1:len(q)]
        cf[2 * r - 1], cf[2 * r] = -q[0], -e[0]
        q = q[1:-1] * e[1:] / e[:-1]
    cf = cf.astype(complex)
    _all_finite("qd tail is out of the double range", cf[:1])
    bad = ~np.isfinite(cf)
    if bad.any():
        cf = cf[: int(np.argmax(bad))]
    return cf


def _qd_eval(cf: np.ndarray, z: np.ndarray) -> np.ndarray:
    # bottom up, out <- cf[i]*z / (1 + out), with out carried as the ratio
    # p/q in three buffers: p <- cf[i]*z*q and q <- q + p, so there is one
    # complex division, at the end.  cf[1:] are scale-free ratios, and the
    # growth of q, at most the product of max(1, |cf[i]|), stays far from
    # overflow: below 10**6.5 in scans of 3000 random integrators and
    # windows of the documented domain.
    p = np.zeros_like(z)
    q = np.ones_like(z)
    w = np.empty_like(z)
    for i in range(len(cf) - 1, 0, -1):
        np.multiply(cf[i], z, out=w)
        np.multiply(w, q, out=w)
        np.add(q, p, out=q)
        p, w = w, p
    np.add(q, p, out=p)
    np.multiply(cf[0], q, out=q)
    # a continued-fraction pole at a sample point is a breakdown
    return _all_finite("qd tail estimate is not finite",
                       np.divide(q, p, out=q))


@functools.lru_cache(maxsize=4)
def _unit_roots(m: int) -> np.ndarray:
    """Read-only array of the m sample points z_k = exp(2j*pi*k/N) of a
    line of N = 2m points, k = 1 .. m."""
    z = np.arange(1, m + 1, dtype=complex)
    np.multiply(2j * np.pi, z, out=z)
    np.divide(z, 2 * m, out=z)
    np.exp(z, out=z)
    z.flags.writeable = False
    return z


def _twice_real_sum(F: np.ndarray, m: int) -> np.ndarray:
    """2*Re(sum_n F[n] * z_k**n) over the N = 2m line samples F, at the
    points z_k of :func:`_unit_roots`, by one real inverse FFT of length N.

    The sum is real, so it is the inverse FFT of the Hermitian fold
    H_0 = 2*Re(F_0), H_n = F_n + conj(F_{N-n}) for 0 < n < m and
    H_m = 2*F_m: z_k**(N-n) = conj(z_k**n) and z_k**m = (-1)**k."""
    H = np.empty(m + 1, dtype=complex)
    np.conjugate(F[:m:-1], out=H[1:m])
    np.add(H[1:m], F[1:m], out=H[1:m])
    H[0] = 2.0 * F[0].real
    H[m] = 2.0 * F[m]
    return np.fft.irfft(H, 2 * m, norm="forward")[1:m + 1]


def _check_window(tm: float, m: int) -> Tuple[float, int]:
    """``(tm, m)`` as float and int; raises ParamError unless tm is
    positive and finite, m is a power of two from 64 to 2**20 and the
    Bromwich line is finite: the window T = 2*tm and the highest line
    frequency, pi*(2m + _QD_TERMS)/tm, are finite doubles."""
    tm, n = _positive("tm", tm), _count("m", m, 64)
    if n > _MAX_M or n & (n - 1):
        raise ParamError(f"m must be a power of two from 64 to {_MAX_M}, "
                         f"got {m!r}")
    if not (math.isfinite(2.0 * tm)
            and math.isfinite(math.pi * (2 * n + _QD_TERMS) / tm)):
        raise ParamError(f"tm = {tm!r} with m = {n} puts the Bromwich line "
                         f"beyond the double range")
    return tm, n


def nilt(f: Callable[[np.ndarray], np.ndarray], tm: float,
         m: int) -> TimeSeries:
    """Invert a Laplace transform to ``m`` samples on (0, tm].

    The N = 2m line samples are summed by one real inverse FFT of their
    Hermitian fold, and the qd tail is evaluated at the m sample points
    z_k = exp(2j*pi*k/N), which are computed once per m and cached.

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
        Window end time in seconds, a positive finite real number.
    m : int
        Number of output samples, an integral power of two from 64 to
        2**20 (1048576).

    Returns
    -------
    TimeSeries with t0 = dt = tm/m.

    Raises
    ------
    ParamError for an invalid ``tm`` or ``m``; EvaluationError, naming the
    first bad sample, if ``f`` returns NaN/Inf, the qd tail is out of the
    double range or has a pole at a sample point, or a sample overflows.
    """
    tm, m = _check_window(tm, m)
    T = 2.0 * tm
    c = -math.log(_REL_ERR) / T
    N = 2 * m
    dw = 2.0 * math.pi / T
    dt = tm / m
    t = np.arange(1, m + 1) * dt

    s = np.arange(N, dtype=complex)
    np.multiply(1j * dw, s, out=s)
    np.add(c, s, out=s)
    s_tail = c + 1j * dw * np.arange(N, N + _QD_TERMS).astype(np.longdouble)
    with np.errstate(all="ignore"):
        F = _all_finite("transform is not finite on the line",
                        np.broadcast_to(f(s), s.shape))
        F_tail = _all_finite("transform is not finite on the qd tail",
                             np.broadcast_to(f(s_tail), s_tail.shape))
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
            # into a new buffer: F may be the transform's own array
            split = np.add(s, beta)
            np.divide(r, split, out=split)
            F = np.subtract(F, split, out=split)
            F_tail = F_tail - r / (s_tail + beta)

        # the tail sum_{n >= N} F_n z^n = z^N * sum_i F_{N+i} z^i, and
        # z^N = 1 at every sample point z = exp(2j*pi*k/N)
        tail = _qd_eval(_qd_coeffs(F_tail), _unit_roots(m)).real
        np.multiply(2.0, tail, out=tail)
        re = _twice_real_sum(F, m)
        np.add(re, tail, out=re)
        # vals = (exp(c*t)/T) * (2*Re(line sum + tail) - Re(F_0)), in place
        vals = np.multiply(c, t)
        np.exp(vals, out=vals)
        np.divide(vals, T, out=vals)
        np.subtract(re, F[0].real, out=re)
        np.multiply(vals, re, out=vals)
        if r != 0.0:
            # t is not needed after this
            np.multiply(-beta, t, out=t)
            np.exp(t, out=t)
            np.multiply(r, t, out=t)
            np.add(vals, t, out=vals)
    return TimeSeries(dt, dt, _all_finite("inverted samples overflow", vals))
