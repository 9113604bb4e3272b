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
  two line points, n = N-2 and m-1, and carried by an exactly invertible
  term r/(s + 1/tm), removing the jump of the damped periodic extension
  at t = 0 that otherwise dominates the truncation error for step-like
  responses.
* tail acceleration ("qd", de Hoog, Knight & Stokes 1982): the truncated
  part of the series is summed by a Pade-type continued fraction built
  with the quotient-difference algorithm from a handful of extra line
  samples, which are evaluated and processed in extended precision
  because the fraction amplifies rounding in them.  It resolves
  transforms with algebraic branch points (slowly decaying spectra) and
  makes the inversion nonlinear in F.  The split's weight r is
  subtracted from those samples, so its two points come from the same
  extended-precision call; the double-precision line enters the result
  only through the inverse FFT and F_0, linearly.

The first returned sample sits at t = dt = tm/m; t = 0 is excluded because
impulse responses of fractional integrators with order below one diverge
there.  The last fifth of the window is as accurate as the rest: at
tm = 10, m = 1024 and 16384, 1/s, 1/s^2 and 1/(s^2+1) have a relative L2
error of 9.4e-9, 3.2e-8 and 1.2e-8 on (0.8*tm, tm] against 9.1e-9,
5.2e-8 and 1.0e-8 on [dt, 0.8*tm], and a max absolute error there at
most 1.1x that before it.  1/(s+1) reads 3.3e-6 relative on the last
fifth only because e^-t is ~5e-5 there; its absolute error is the
smaller one, 6.1e-10 against 1.3-1.4e-8.

The transform must be conjugate-symmetric (real time function), and the
1e-8 aliasing bound assumes it is analytic for Re(s) > 0.  A singularity
p with 0 < Re(p) < c increases the aliasing error to about
exp(-(c - Re(p))*T): 1/(s - 0.3) at tm = 20, where c = 0.46, reads
1.6e-3 relative L2.  A singularity at or right of the line Re(s) = c
returns a wrong series without any error.  Neither condition is
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
# matrix reaches its cap, sysid._MAX_FIT_ENTRIES (about 151 MB), and the
# fit, whose filter band lives in that matrix, peaks at 1.24 times it
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
    p = np.zeros(len(z), z.dtype)
    q = np.ones(len(z), z.dtype)
    w = np.empty(len(z), z.dtype)
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


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


# windows of at most this many samples are kept, the 8 last used: a
# window at m = 2**14 holds 1 MiB.  Larger ones are built per call and
# keep nothing once nilt returns
_KEEP_MAX_M = 2 ** 14


class _Window:
    """The arrays of one inversion that depend on (tm, m) alone, read-only.

    Built at once: the line s_n = c + j*n*dw, n = 0 .. N-1; the extended
    points in np.longdouble, the qd tail's 2P+1 points n = N .. N+2P, then
    the split's line points N-2 and m-1; the tail's sample points
    z_k = exp(2j*pi*k/N), k = 1 .. m; and the damping e^(c*t)/T and the
    split's decay e^(-t/tm) at t = dt .. tm."""

    def __init__(self, tm: float, m: int):
        T = 2.0 * tm
        self.c = -math.log(_REL_ERR) / T
        self.dt = tm / m
        N, dw = 2 * m, 2.0 * math.pi / T
        self.s = _read_only(self.c + 1j * dw * np.arange(N))
        # the tail amplifies rounding in both its own and the split's
        # points, so both come in extended precision
        n_ext = np.concatenate((np.arange(N, N + _QD_TERMS), (N - 2, m - 1)))
        self.s_ext = _read_only(self.c + 1j * dw * n_ext.astype(np.longdouble))
        self.z = _read_only(np.exp(2j * np.pi * np.arange(1, m + 1) / N))
        t = np.arange(1, m + 1) * self.dt
        self.damping = _read_only(np.exp(self.c * t) / T)
        self.decay = _read_only(np.exp(-(1.0 / tm) * t))


@functools.lru_cache(maxsize=8)
def _kept(tm: float, m: int) -> _Window:
    # eight hold the benchmark lattice's six (tm, m) pairs
    return _Window(tm, m)


def _kept_window(tm: float, m: int):
    """The kept :class:`_Window` of a checked ``(tm, m)``, None for m above
    2**14, whose windows are not kept."""
    return _kept(tm, m) if m <= _KEEP_MAX_M else None


def _transform_values(f, s: np.ndarray, where: str) -> np.ndarray:
    """``f(s)`` broadcast to the shape of ``s``; ParamError unless it
    holds numbers of that shape or one that broadcasts to it,
    EvaluationError("transform is not finite <where> (sample k)") at its
    first non-finite entry."""
    F = np.asarray(f(s))
    if F.dtype.kind not in "iufc":
        raise ParamError(f"transform must return numbers, got dtype "
                         f"{F.dtype} {where}")
    try:
        F = np.broadcast_to(F, s.shape)
    except ValueError:
        raise ParamError(f"transform returned shape {F.shape} for "
                         f"{len(s)} points {where}") from None
    return _all_finite(f"transform is not finite {where}", F)


def _twice_real_sum(F: np.ndarray, m: int) -> np.ndarray:
    """2*Re(sum_n F[n] * z_k**n) over the N = 2m line samples F, at the
    points z_k = exp(2j*pi*k/N), k = 1 .. m, by one real inverse FFT of
    length N.

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
    z_k = exp(2j*pi*k/N).  The arrays that depend on (tm, m) alone, the
    line, the extended points, the z_k, the damping and the decay, are
    one read-only window, built at once: windows of m <= 2**14 are kept,
    the 8 last used, 1 MiB each at m = 2**14, and larger ones are built
    per call and keep nothing once nilt returns.

    Parameters
    ----------
    f : callable
        Array transform ``s -> F(s)``, analytic for Re(s) > 0 with
        ``f(conj(s)) == conj(f(s))``: a singularity right of 0 increases
        the aliasing error, and one at or right of the line Re(s) = c
        gives a wrong series without an error (see the module
        docstring).  Called once on the whole line of N points
        (complex128) and once more on one ``np.clongdouble`` array: the
        2P+1 tail points, then the line points N-2 and m-1,
        from which alone the initial-value split is estimated.  A scalar
        return is broadcast to the line; a return that holds no numbers
        or does not broadcast to its points raises ParamError.  Both
        arrays are read-only, so a transform that writes into its
        argument raises ValueError instead of changing a kept window.
        The qd tail amplifies rounding in F, so a transform that keeps
        the extended dtype gets a tail and a split independent of double
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
    ParamError for an invalid ``tm`` or ``m`` or a return of ``f`` that
    is not numbers of its argument's shape; EvaluationError, naming the
    first bad sample, if ``f`` returns NaN/Inf, the qd tail is out of the
    double range or has a pole at a sample point, or a sample overflows.
    """
    tm, m = _check_window(tm, m)
    w = _kept_window(tm, m) or _Window(tm, m)
    s, s_ext = w.s, w.s_ext
    with np.errstate(all="ignore"):
        F = _transform_values(f, s, "on the line")
        F_ext = _transform_values(f, s_ext, "at the extended points")
        peak = max(float(np.abs(F).max()), float(np.abs(F_ext).max()))

        # initial-value split: the intercept f0 of s*F(s) ~ f0 + f1/s through
        # the two split points, peeled off as f0/(s + 1/tm); skipped when the
        # estimate is wildly out of scale (improper transforms), where it
        # would only add noise.
        (sa, sb), (fa, fb) = s_ext[-2:], F_ext[-2:]
        r = float(((sa * sa * fa - sb * sb * fb) / (sa - sb)).real)
        beta = 1.0 / tm
        if not math.isfinite(r) or abs(r) > 100.0 * w.c * max(peak, 1e-300):
            r = 0.0
        if r != 0.0:
            # into a new buffer: F may be the transform's own array
            split = np.add(s, beta)
            np.divide(r, split, out=split)
            F = np.subtract(F, split, out=split)
            F_ext = F_ext - r / (s_ext + beta)

        # the tail sum_{n >= N} F_n z^n = z^N * sum_i F_{N+i} z^i, and
        # z^N = 1 at every sample point z = exp(2j*pi*k/N)
        tail = _qd_eval(_qd_coeffs(F_ext[:_QD_TERMS]), w.z).real
        np.multiply(2.0, tail, out=tail)
        re = _twice_real_sum(F, m)
        np.add(re, tail, out=re)
        # vals = (exp(c*t)/T) * (2*Re(line sum + tail) - Re(F_0)), in place
        np.subtract(re, F[0].real, out=re)
        vals = np.multiply(w.damping, re, out=re)
        if r != 0.0:
            np.add(vals, np.multiply(r, w.decay), out=vals)
    dt = w.dt
    return TimeSeries(dt, dt, _all_finite("inverted samples overflow", vals))
