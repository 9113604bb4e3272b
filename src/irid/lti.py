"""Rational transfer functions and sampled signals.

Coefficient convention used everywhere in this package: coefficient arrays
are ordered by DESCENDING powers, leading coefficient first, so
``[1, -3, 2]`` is ``x**2 - 3*x + 2``.  A discrete transfer function stores
numerator and denominator padded to equal length, so its lag reading
B(z**-1)/A(z**-1) and its polynomial reading num(z)/den(z) are one function.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy

from .errors import EvaluationError, ParamError

__all__ = [
    "DiscreteTransferFunction",
    "ContinuousTransferFunction",
    "TimeSeries",
    "FrequencyGrid",
    "FrequencyResponseSeries",
    "discrete_impulse",
    "continuous_impulse",
    "discrete_freq_response",
    "continuous_freq_response",
    "is_stable_discrete",
]


def _load_flapack():
    """scipy's f2py LAPACK extension module ``scipy/linalg/_flapack``,
    loaded by file path as ``irid._flapack``.

    ``import scipy`` (about 10 ms) runs the wheel's shared-library set-up;
    loading the one extension file costs a few ms more, where importing
    the ``scipy.linalg`` package costs about 300 ms, so irid never imports
    it.  The extension's init function is ``PyInit__flapack``, so the
    module's name must end in ``_flapack``.  A missing file raises
    ImportError naming its path; there is no fallback.
    """
    path = os.path.join(scipy.__path__[0], "linalg", "_flapack"
                        + importlib.machinery.EXTENSION_SUFFIXES[0])
    spec = importlib.util.spec_from_file_location("irid._flapack", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the LAPACK routines irid calls: dtbtrs here, dgeqrt and dgelsd in sysid
_flapack = _load_flapack()
dtbtrs = _flapack.dtbtrs


def _finite_real(x) -> bool:
    """Whether ``x`` is an int, float or numpy real scalar in the double
    range, so ``float(x)`` is finite; a bool, a string or bytes is not a
    number."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and -sys.float_info.max <= x <= sys.float_info.max)


def _positive(name: str, x) -> float:
    """``x`` as a float; ParamError unless it is a finite real number > 0."""
    if not (_finite_real(x) and x > 0.0):
        raise ParamError(f"{name} must be positive and finite, got {x!r}")
    return float(x)


def _count(name: str, x, least: int) -> int:
    """``x`` as an int; ParamError unless it is an integral real number >=
    ``least`` (5.0 or a numpy integer is accepted, 5.7, "5" or True not)."""
    if not (_finite_real(x) and x == int(x)):
        raise ParamError(f"{name} must be an integer, got {x!r}")
    if x < least:
        raise ParamError(f"{name} must be >= {least}, got {x!r}")
    return int(x)


def _number_array(name: str, x, dtype=float) -> np.ndarray:
    """``x`` as a ``dtype`` array, float or complex, not copied if it is
    one; ParamError unless numpy reads it as integers or floats, or also
    as complex numbers for a complex ``dtype`` (bools, strings, bytes and
    objects are never numbers, and complex numbers are not real ones)."""
    arr = np.asarray(x)
    if arr.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        kind = "complex" if dtype is complex else "real"
        raise ParamError(f"{name} must hold {kind} numbers, got dtype "
                         f"{arr.dtype}")
    return arr.astype(dtype, copy=False)


def _vector(name: str, x, dtype=float) -> np.ndarray:
    """``x`` as a new read-only ``dtype`` array (see :func:`_number_array`);
    raises ParamError unless it is a non-empty 1-D sequence of finite
    numbers."""
    arr = np.array(_number_array(name, x, dtype))
    if arr.ndim != 1 or arr.size == 0:
        raise ParamError(f"{name} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ParamError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _all_finite(what: str, x: np.ndarray) -> np.ndarray:
    """``x`` unchanged, or EvaluationError("<what> (sample k)") at its
    first non-finite entry, k the flat index.  Numpy arithmetic whose
    result this checks runs with floating-point warnings off."""
    finite = np.isfinite(x)
    if not finite.all():
        raise EvaluationError(f"{what} (sample {int(np.argmin(finite))})")
    return x


def _trim(c: np.ndarray) -> np.ndarray:
    """Strip leading zeros; the zero polynomial stays as ``[0.0]``."""
    nz = np.flatnonzero(c)
    return c[nz[0]:] if nz.size else c[-1:]


def _monic_pair(num, den) -> Tuple[np.ndarray, np.ndarray]:
    """``num`` and ``den`` as new read-only float64 arrays, both divided by
    ``den[0]``.  One correctly rounded division per coefficient, so the
    stored ``den[0]`` is exactly 1.0 and a pair already monic keeps its
    bits.  ParamError for a zero ``den[0]`` or a quotient that overflows."""
    num, den = _vector("num", num), _vector("den", den)
    lead = den[0]
    if lead == 0.0:
        raise ParamError("denominator leading coefficient must be nonzero")
    with np.errstate(over="ignore"):
        num, den = num / lead, den / lead
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise ParamError("coefficients overflow when divided by the "
                         "denominator's leading coefficient")
    num.flags.writeable = den.flags.writeable = False
    return num, den


@dataclass(frozen=True, eq=False)
class DiscreteTransferFunction:
    """Rational function of z with sample period ``ts``.

    ``num`` and ``den`` are read-only float64 coefficient arrays, both
    divided by the denominator's leading coefficient on construction, so
    ``den[0]`` is exactly 1.0; the shorter array is then padded with
    trailing zeros to the length of the other.  Entry ``i`` of each then
    multiplies z**-i of the lag reading B(z**-1)/A(z**-1), which is the
    same rational function as num(z)/den(z).  Leading zeros are delays
    and are kept.
    """

    num: np.ndarray
    den: np.ndarray
    ts: float

    def __post_init__(self):
        num, den = _monic_pair(self.num, self.den)
        size = max(len(num), len(den))
        for name, coeffs in (("num", num), ("den", den)):
            if len(coeffs) < size:
                coeffs = np.concatenate((coeffs, np.zeros(size - len(coeffs))))
                coeffs.flags.writeable = False
            object.__setattr__(self, name, coeffs)
        object.__setattr__(self, "ts", _positive("ts", self.ts))


@dataclass(frozen=True, eq=False)
class ContinuousTransferFunction:
    """Rational function of s; read-only coefficient arrays, both divided
    by the denominator's leading coefficient, so ``den[0]`` is exactly
    1.0, and the numerator stored without leading zeros (the zero
    polynomial as ``[0.0]``), so each array's degree is its length - 1."""

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        num, den = _monic_pair(self.num, self.den)
        object.__setattr__(self, "num", _trim(num))
        object.__setattr__(self, "den", den)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled real signal; sample k sits at ``t0 + k*dt``.

    ``t0`` and ``dt`` > 0 are finite real numbers; ``values``, non-empty and
    finite, is stored as a read-only float64 array; else ParamError.
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        if not _finite_real(self.t0):
            raise ParamError(f"t0 must be finite, got {self.t0!r}")
        object.__setattr__(self, "values", _vector("values", self.values))
        object.__setattr__(self, "dt", _positive("dt", self.dt))
        object.__setattr__(self, "t0", float(self.t0))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.values))


# largest log-spaced grid: a run's three complex responses on it take
# about 48 MB
_MAX_POINTS = 2 ** 20


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing positive angular frequencies in rad/s."""

    omegas: np.ndarray

    def __post_init__(self):
        omegas = _vector("omegas", self.omegas)
        if np.any(omegas <= 0.0):
            raise ParamError("frequencies must be > 0")
        if np.any(np.diff(omegas) <= 0.0):
            raise ParamError("frequencies must be strictly increasing")
        object.__setattr__(self, "omegas", omegas)

    def __len__(self) -> int:
        return len(self.omegas)

    @classmethod
    def log_spaced(cls, wmin: float, wmax: float, npoints: int) -> "FrequencyGrid":
        """Logarithmically spaced grid over [wmin, wmax], inclusive, of 2
        to 2**20 points."""
        wmin, wmax = _positive("wmin", wmin), _positive("wmax", wmax)
        if not wmin < wmax:
            raise ParamError("need 0 < wmin < wmax")
        npoints = _count("npoints", npoints, 2)
        if npoints > _MAX_POINTS:
            raise ParamError(f"npoints must be <= {_MAX_POINTS}, got "
                             f"{npoints!r}")
        omegas = np.logspace(math.log10(wmin), math.log10(wmax), npoints)
        # pin the endpoints exactly; logspace only hits them to roundoff
        omegas[0], omegas[-1] = wmin, wmax
        return cls(omegas)


@dataclass(frozen=True, eq=False)
class FrequencyResponseSeries:
    """Complex response sampled on a FrequencyGrid: ints, floats or
    complex numbers, all finite, one per grid point, stored as a read-only
    complex128 array; else ParamError."""

    grid: FrequencyGrid
    response: np.ndarray

    def __post_init__(self):
        response = _vector("response", self.response, complex)
        if len(response) != len(self.grid):
            raise ParamError("response length must match the grid")
        object.__setattr__(self, "response", response)

    def magnitude_db(self) -> np.ndarray:
        return 20.0 * np.log10(np.abs(self.response))

    def phase_deg(self) -> np.ndarray:
        """Phase in degrees, unwrapped along the grid."""
        return np.degrees(np.unwrap(np.angle(self.response)))


def _allpole(den: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The columns of ``x`` filtered through 1/den(z) from a zero state, in
    place; ``den`` is monic and ``x`` a Fortran-order float64 (n, k) array,
    which is returned.

    This is forward substitution with the n-by-n unit lower-triangular
    banded Toeplitz matrix whose i-th subdiagonal holds den[i]: LAPACK
    tbtrs, no pivoting, solving in place.  Any other layout or dtype would
    be solved in a copy, leaving ``x`` as it was.
    """
    # den in every column: (n, len(den)) in C order is the band in F order
    band = np.repeat(den[None, :], x.shape[0], axis=0).T
    y, _ = dtbtrs(band, x, uplo="L", diag="U", overwrite_b=1)
    return y


def discrete_impulse(g: DiscreteTransferFunction, n: int) -> TimeSeries:
    """First ``n`` samples of the unit-impulse response of ``g``.

    Filters the numerator's lag sequence (zero-padded or truncated to
    ``n``) through 1/A(z**-1), the lag reading of the monic denominator,
    so the response starts at t=0 with ``num[0]``.  The stored arrays are
    equally long, so this is the response of num(z)/den(z) as well.
    ``n`` is an integral number >= 1.  Raises EvaluationError when the
    response overflows (a pole far outside the unit circle).
    """
    n = _count("n", n, 1)
    x = np.zeros((n, 1))
    b = g.num[:n]
    x[:len(b), 0] = b
    vals = _allpole(g.den, x)[:, 0]
    return TimeSeries(0.0, g.ts, _all_finite(
        "discrete impulse response overflows; the model has a pole far "
        "outside the unit circle", vals))


def _pade_terms() -> np.ndarray:
    """The 4-by-4 matrix that maps I, A**2, A**4, A**6 to the four sums of
    Higham's evaluation of the degree-13 diagonal Pade approximant of
    exp(A): the odd part A @ (A**6 @ x0 + x1) and the even part
    A**6 @ x2 + x3 of its numerator p(A), whose denominator is p(-A).
    b_k, the coefficient of A**k in p, is (26-k)!/(k!(13-k)!), so
    b_13 = 1."""
    b = [math.factorial(26 - k) / (math.factorial(k) * math.factorial(13 - k))
         for k in range(14)]
    return np.array([[0.0, *b[9::2]], b[1:8:2], [0.0, *b[8:13:2]], b[0:7:2]])


_PADE_TERMS = _pade_terms()


def _ell(abs_a: np.ndarray, norm: float, m: int) -> int:
    """Al-Mohy and Higham's ell(A, m), with ``abs_a`` = abs(A) and
    ``norm`` = ||A||_1: how many more squarings keep the rounding error
    of the degree-m approximant of a nonnormal A near the unit roundoff.
    It is ceil(log2(alpha * 2**53) / (2m)), alpha = ||abs(A)**(2m+1)||_1 /
    (||A||_1 * c), c = 1/|c_{2m+1}| = (2m)!(2m+1)!/(m!)**2 the reciprocal
    of the leading coefficient of the approximant's error series, from
    the powers of abs(A) * 2**-e, e the exponent of ``norm``, whose 1-norm
    is below one: none overflows."""
    c = (math.factorial(2 * m) * math.factorial(2 * m + 1)
         / math.factorial(m) ** 2)
    frac, e = math.frexp(norm)
    q = (np.linalg.matrix_power(np.ldexp(abs_a, -e), 2 * m + 1)
         .sum(axis=0).max())
    if not q:
        return 0
    log2_alpha = 2 * m * e + math.log2(q / frac) - math.log2(c)
    return max(0, math.ceil((log2_alpha + 53) / (2 * m)))


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square float64 matrix by Pade scaling and squaring: the
    algorithm of A. H. Al-Mohy and N. J. Higham, "A new scaling and
    squaring algorithm for the matrix exponential", SIAM J. Matrix Anal.
    Appl. 31 (2009) 970-989, which scipy's ``expm`` implements as well,
    at degree 13 only: their search over lower degrees saves matrix
    products, but here a**2 ... a**10 are formed for the norm estimates
    anyway and any degree takes the same four sums, so it would save none.

    The scaling 2**-s is chosen from the exact 1-norms d_k =
    ||a**k||_1**(1/k), k = 6, 8, 10, not from ||a||_1 as in Higham's 2005
    algorithm: a companion matrix with a large first row has a 1-norm far
    above its spectral radius, and every squaring the 1-norm asks for
    adds rounding error.  A 1-by-1 matrix gives ``np.exp(a)`` exactly; a
    matrix whose 1-norm is not finite gives NaNs, without a warning.
    """
    if a.shape == (1, 1):
        return np.exp(a)
    abs_a = np.abs(a)
    with np.errstate(over="ignore"):
        norm = abs_a.sum(axis=0).max()
    if not np.isfinite(norm):
        return np.full(a.shape, np.nan)
    n = len(a)
    # b = a * 2**-t, t >= 0 just large enough for ||b||_1 < 2**64, so that
    # no power of b up to the 10th overflows
    t = max(0, math.frexp(norm)[1] - 64)
    b = np.ldexp(a, -t)
    # I, b**2, b**4, b**6, b**8, b**10
    powers = np.empty((6, n, n))
    powers[0] = np.eye(n)
    np.matmul(b, b, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    np.matmul(powers[2], powers[2], out=powers[4])
    np.matmul(powers[2], powers[3], out=powers[5])
    d6, d8, d10 = (np.abs(powers[3:]).sum(axis=1).max(axis=1)
                   ** (1.0 / np.arange(6, 12, 2)) * 2.0 ** t).tolist()
    # theta_13 = 4.25: for eta up to it the approximant's backward error
    # is below 2**-53 (Al-Mohy and Higham 2009)
    eta = min(max(d6, d8), max(d8, d10))
    s = math.ceil(math.log2(eta / 4.25)) if eta > 4.25 else 0
    s += _ell(np.ldexp(abs_a, -s), math.ldexp(norm, -s), 13)
    if s != t:
        # b and its powers for b = a * 2**-s
        with np.errstate(over="ignore", under="ignore"):
            b = np.ldexp(b, t - s)
            np.ldexp(powers[1:4], (t - s) * np.arange(2, 8, 2)[:, None, None],
                     out=powers[1:4])
    x0, x1, x2, x3 = (_PADE_TERMS @ powers[:4].reshape(4, -1)).reshape(4, n, n)
    u = b @ (powers[3] @ x0 + x1)
    v = powers[3] @ x2 + x3
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def continuous_impulse(g: ContinuousTransferFunction, dt: float,
                       n: int) -> TimeSeries:
    """Exact impulse response of ``g`` at t = dt, 2*dt, ..., n*dt.

    With sigma = s*dt the denominator's coefficients become a_i*dt**i, of
    order one for poles up to the sampling rate, and the companion
    realization (A, B, C) of the strictly proper part of g(sigma/dt) gives
    h(k*dt) = C @ Phi**k @ B / dt with Phi = expm(A), computed in numpy by
    Pade scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26
    (2005) 1179-1193) at degree 13 only, which costs no more products here
    than a lower one, with the scaling chosen as in Al-Mohy and Higham,
    ibid. 31 (2009) 970-989; see :func:`_expm`.  The direct term acts at
    t = 0 only.  The columns Phi**k @ B are filled in place by doubling,
    X <- [X, P @ X], P <- P @ P: log2(n) matrix products.

    Raises ParamError for an improper g and EvaluationError when the
    response overflows (a pole far in the right half-plane).
    """
    dt, n = _positive("dt", dt), _count("n", n, 1)
    num, den = g.num, g.den
    order = len(den) - 1
    if len(num) > len(den):
        raise ParamError("impulse response needs a proper transfer function")
    if order == 0:
        return TimeSeries(dt, dt, np.zeros(n))
    num = np.concatenate((np.zeros(len(den) - len(num)), num))
    with np.errstate(all="ignore"):
        scale = dt ** np.arange(1, order + 1)
        rem = (num[1:] - num[0] * den[1:]) * scale
        a = np.zeros((order, order))
        a[0] = -den[1:] * scale
        a[np.arange(1, order), np.arange(order - 1)] = 1.0
        p = _expm(a)
        cols = np.empty((order, n))
        cols[:, 0] = p[:, 0]
        w = 1
        while w < n:
            step = min(w, n - w)
            np.matmul(p, cols[:, :step], out=cols[:, w:w + step])
            w += step
            p = p @ p
        vals = rem @ cols / dt
    return TimeSeries(dt, dt, _all_finite(
        "continuous impulse response overflows; the model has a pole far "
        "in the right half-plane", vals))


def _rational_response(num: np.ndarray, den: np.ndarray, points: np.ndarray,
                       grid: FrequencyGrid) -> FrequencyResponseSeries:
    with np.errstate(all="ignore"):
        nv = np.polyval(num, points)
        dv = np.polyval(den, points)
        small = np.abs(dv) < 1e-300
        ratio = nv / dv
    if np.any(small):
        w = grid.omegas[np.argmax(small)]
        raise EvaluationError(f"denominator vanishes near omega={w:g} rad/s")
    return FrequencyResponseSeries(grid, _all_finite(
        "frequency response is not finite", ratio))


def discrete_freq_response(g: DiscreteTransferFunction,
                           grid: FrequencyGrid) -> FrequencyResponseSeries:
    """Evaluate num(z)/den(z) at z = exp(j*omega*ts) over the grid: the
    DTFT of :func:`discrete_impulse`, since the stored arrays are equally
    long.

    Frequencies above the Nyquist rate are evaluated anyway, with a warning.
    """
    w = grid.omegas
    if np.any(w * g.ts > math.pi):
        warnings.warn("grid extends above the Nyquist frequency pi/ts",
                      stacklevel=2)
    z = np.exp(1j * w * g.ts)
    return _rational_response(g.num, g.den, z, grid)


def continuous_freq_response(g: ContinuousTransferFunction,
                             grid: FrequencyGrid) -> FrequencyResponseSeries:
    """Evaluate num(s)/den(s) at s = j*omega over the grid."""
    return _rational_response(g.num, g.den, 1j * grid.omegas, grid)


def is_stable_discrete(g: DiscreteTransferFunction) -> Tuple[bool, float]:
    """Whether all denominator roots lie inside the unit circle.

    Returns (stable, margin) with margin = 1 - max root modulus; a
    constant denominator has no poles and reports (True, 1.0).
    """
    # the monic denominator needs no trimming or checks before np.roots
    margin = 1.0 - float(np.max(np.abs(np.roots(g.den)), initial=0.0))
    return margin > 0.0, margin
