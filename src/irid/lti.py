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
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

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

    ``importlib.util.find_spec`` finds the scipy package without running
    its ``__init__`` (about 15 ms cold, and with it scipy's check of the
    numpy version), so on Linux no ``scipy`` module is imported.  Where
    the first load raises ImportError, as with a wheel whose ``__init__``
    adds its bundled shared libraries to the search path, irid runs
    ``import scipy`` and loads the file once more.  Importing the
    ``scipy.linalg`` package would cost about 300 ms, so irid never does.
    The extension's init function is ``PyInit__flapack``, so the module's
    name must end in ``_flapack``.  A failed second load raises
    ImportError naming the file's path.
    """
    package = importlib.util.find_spec("scipy")
    if package is None:
        raise ImportError("irid needs the scipy package, which is not "
                          "installed")
    path = os.path.join(package.submodule_search_locations[0], "linalg",
                        "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    spec = importlib.util.spec_from_file_location("irid._flapack", path)
    try:
        module = importlib.util.module_from_spec(spec)
    except ImportError:
        import scipy  # noqa: F401  (the wheel's shared-library set-up)
        try:
            module = importlib.util.module_from_spec(spec)
        except ImportError as exc:
            raise ImportError(f"cannot load scipy's LAPACK extension "
                              f"{path}: {exc}") from exc
    spec.loader.exec_module(module)
    return module


# the LAPACK routines irid calls: dtbtrs, dgebal, dgesv and dgeev here,
# dgeqrf, dgeqrt and dgelsd in sysid; module-level names, so that a test
# can replace one
_flapack = _load_flapack()
dtbtrs, dgebal = _flapack.dtbtrs, _flapack.dgebal
dgesv, dgeev = _flapack.dgesv, _flapack.dgeev


def _finite_real(x) -> bool:
    """Whether ``x`` is an int, float or numpy real scalar in the double
    range, so ``float(x)`` is finite; a bool, a string or bytes is not a
    number."""
    # float first: isinstance tries it before the slower abstract class.
    # math.isfinite converts to float, where a comparison with the double
    # range would cast that range into a float16 or float32 scalar's dtype
    if not isinstance(x, (float, numbers.Real)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the double range
        return False


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


def _checked_vector(name: str, x, dtype=float) -> np.ndarray:
    """``x`` as a ``dtype`` array, not copied if it is one (see
    :func:`_number_array`); raises ParamError unless it is a non-empty 1-D
    sequence of finite numbers."""
    arr = _number_array(name, x, dtype)
    if arr.ndim != 1 or arr.size == 0:
        raise ParamError(f"{name} must be a non-empty 1-D sequence")
    if not np.isfinite(arr).all():
        raise ParamError(f"{name} must be finite")
    return arr


def _vector(name: str, x, dtype=float) -> np.ndarray:
    """:func:`_checked_vector` of ``x``, as a new read-only array."""
    arr = np.array(_checked_vector(name, x, dtype))
    arr.flags.writeable = False
    return arr


def _first_non_finite(x: np.ndarray):
    """The flat C-order index of the first non-finite entry of ``x``, or
    None when every entry is finite."""
    finite = np.isfinite(x)
    if finite.all():
        return None
    return int(np.argmin(finite))


def _all_finite(what: str, x: np.ndarray) -> np.ndarray:
    """``x`` unchanged, or EvaluationError("<what> (sample k)") at its
    first non-finite entry, k the flat index.  Numpy arithmetic whose
    result this checks runs with floating-point warnings off."""
    bad = _first_non_finite(x)
    if bad is not None:
        raise EvaluationError(f"{what} (sample {bad})")
    return x


def _sum_squares(x: np.ndarray) -> float:
    """The sum of the squares of the vector ``x``, by numpy, not BLAS:
    BLAS splits a long vector's sum across its threads, which would make
    the bits depend on their number."""
    return np.einsum("i,i->", x, x)


def _trim(c: np.ndarray) -> np.ndarray:
    """Strip leading zeros; the zero polynomial stays as ``[0.0]``."""
    nz = np.flatnonzero(c)
    return c[nz[0]:] if nz.size else c[-1:]


def _monic_pair(num, den) -> Tuple[np.ndarray, np.ndarray]:
    """``num`` and ``den`` as new read-only float64 arrays, both divided by
    ``den[0]``.  One correctly rounded division per coefficient, so the
    stored ``den[0]`` is exactly 1.0 and a pair already monic keeps its
    bits.  ParamError for a zero ``den[0]`` or a quotient that overflows."""
    num, den = _checked_vector("num", num), _checked_vector("den", den)
    lead = den[0]
    if lead == 0.0:
        raise ParamError("denominator leading coefficient must be nonzero")
    # the quotients are new arrays
    with np.errstate(over="ignore"):
        num, den = num / lead, den / lead
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
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


def _allpole(den: np.ndarray, x: np.ndarray, band: np.ndarray) -> np.ndarray:
    """The columns of ``x`` filtered through 1/den(z) from a zero state, in
    place; ``den`` is monic and ``x`` a Fortran-order float64 (n, k) array,
    which is returned.

    This is forward substitution with the n-by-n unit lower-triangular
    banded Toeplitz matrix whose i-th subdiagonal holds den[i]: LAPACK
    tbtrs, no pivoting, solving in place.  Any other layout or dtype would
    be solved in a copy, leaving ``x`` as it was.  The caller owns the
    band's storage: ``band`` is a Fortran-order float64 (len(den), n)
    array, whatever it holds, and every entry of it is overwritten with
    den in every column.  The fit lends the storage of its regression
    matrix, which is idle while it filters; :func:`discrete_impulse`
    passes a new array.
    """
    # den in every column: (n, len(den)) in C order is the band in F order.
    # A broadcast over all n rows copies len(den) values per row; one over
    # at most 256 rows, then one block copy per doubling, is ~3x as fast at
    # 16384 rows
    rows = band.T
    rows[:256] = den
    filled = len(rows[:256])
    while filled < len(rows):
        step = min(filled, len(rows) - filled)
        rows[filled:filled + step] = rows[:step]
        filled += step
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
    vals = _allpole(g.den, x, np.empty((len(g.den), n), order="F"))[:, 0]
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
# theta_13: for ||X||_1 up to it the degree-13 approximant's backward error
# is below 2**-53 (Higham 2005)
_THETA_13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square float64 matrix by balancing and Pade scaling and
    squaring: the algorithm of N. J. Higham, "The scaling and squaring
    method for the matrix exponential revisited", SIAM J. Matrix Anal.
    Appl. 26 (2005) 1179-1193, after LAPACK gebal has balanced a, at
    degree 13 only, also where that algorithm would pick a lower degree
    for a small 1-norm and save up to three products of these small
    matrices.

    A companion matrix with a large first row has a 1-norm far above its
    spectral radius, and every squaring that 1-norm would ask for adds
    rounding error.  gebal's similarity B = D**-1 a D, D a diagonal of
    powers of two (scaling only, no permutation), brings a companion
    matrix's 1-norm down near the scale of its poles; then s >= 0 is the least number of
    squarings with ||B||_1 * 2**-s <= theta_13, and exp(a) = D exp(B)
    D**-1 is undone exactly by powers of two.  The approximant's
    denominator is solved by LAPACK gesv, LU with partial pivoting, as
    ``np.linalg.solve`` would, called directly; a failed balancing or a
    singular factor raises EvaluationError.  A 1-by-1 matrix gives
    ``np.exp(a)`` exactly; a matrix whose 1-norm is not finite gives
    NaNs, without a warning.
    """
    if a.shape == (1, 1):
        return np.exp(a)
    with np.errstate(over="ignore"):
        norm = np.abs(a).sum(axis=0).max()
    if not np.isfinite(norm):
        return np.full(a.shape, np.nan)
    b, _, _, d, info = dgebal(a, scale=1, permute=0)
    if info != 0:
        raise EvaluationError(f"the balancing of exp(A) failed, LAPACK gebal "
                              f"info {info}")
    # the least s >= 0 with ||b||_1 * 2**-s <= theta_13, from the binary
    # exponent of their quotient (frexp, unlike ceil of log2, takes any
    # float without raising)
    frac, s = math.frexp(np.abs(b).sum(axis=0).max() / _THETA_13)
    s = max(0, s - (frac == 0.5))
    x = np.ldexp(b, -s)
    n = len(a)
    # I, x**2, x**4, x**6
    powers = np.empty((4, n, n))
    powers[0] = np.eye(n)
    np.matmul(x, x, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    x0, x1, x2, x3 = (_PADE_TERMS @ powers.reshape(4, -1)).reshape(4, n, n)
    u = x @ (powers[3] @ x0 + x1)
    v = powers[3] @ x2 + x3
    _, _, r, info = dgesv(v - u, v + u, overwrite_a=1, overwrite_b=1)
    if info != 0:
        raise EvaluationError(f"the Pade denominator of exp(A) is singular, "
                              f"LAPACK gesv info {info}")
    for _ in range(s):
        r = r @ r
    # D r D**-1: exact, or saturated to 0 or inf, never 0 * inf
    e = np.frexp(d)[1]
    return np.ldexp(r, e[:, None] - e[None, :])


def continuous_impulse(g: ContinuousTransferFunction, dt: float,
                       n: int) -> TimeSeries:
    """Exact impulse response of ``g`` at t = dt, 2*dt, ..., n*dt.

    With sigma = s*dt the denominator's coefficients become a_i*dt**i, of
    order one for poles up to the sampling rate, and the companion
    realization (A, B, C) of the strictly proper part of g(sigma/dt) gives
    h(k*dt) = C @ Phi**k @ B / dt with Phi = expm(A), computed by
    balancing and Pade scaling and squaring at degree 13 (Higham, SIAM J.
    Matrix Anal. Appl. 26 (2005) 1179-1193); see :func:`_expm`.  The
    direct term acts at t = 0 only.  The columns Phi**k @ B are filled in
    place by doubling, X <- [X, P @ X], then P <- P @ P while columns
    remain: ceil(log2(n)) fills and one squaring fewer.

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
        a = np.eye(order, k=-1)
        a[0] = -den[1:] * scale
        p = _expm(a)
        cols = np.empty((order, n))
        cols[:, 0] = p[:, 0]
        w = 1
        while w < n:
            step = min(w, n - w)
            np.matmul(p, cols[:, :step], out=cols[:, w:w + step])
            w += step
            if w < n:
                p = p @ p
        vals = rem @ cols / dt
    return TimeSeries(dt, dt, _all_finite(
        "continuous impulse response overflows; the model has a pole far "
        "in the right half-plane", vals))


def _rational_response(num: np.ndarray, den: np.ndarray, points: np.ndarray,
                       grid: FrequencyGrid) -> FrequencyResponseSeries:
    """num/den at ``points``, each polynomial evaluated by ``np.polyval``."""
    with np.errstate(all="ignore"):
        dv = np.polyval(den, points)
        small = np.abs(dv) < 1e-300
        ratio = np.polyval(num, points) / dv
    if small.any():
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
    if (w * g.ts > math.pi).any():
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
    constant denominator has no poles and reports (True, 1.0).  The roots
    are the eigenvalues of the trimmed companion matrix by LAPACK geev,
    called directly, the routine ``np.roots`` reaches through
    ``np.linalg.eigvals``; EvaluationError if its QR iteration does not
    converge.
    """
    den = g.den
    # the poles are the eigenvalues of the companion matrix of den without
    # its trailing zeros, which are poles at 0, as np.roots finds them; den
    # is monic, so the first row of that matrix is -den[1:order + 1]
    order = int(np.flatnonzero(den)[-1])
    if order == 0:
        return True, 1.0
    companion = np.eye(order, k=-1, order="F")
    np.negative(den[1:order + 1], out=companion[0])
    wr, wi, _, _, info = dgeev(companion, compute_vl=0, compute_vr=0,
                               overwrite_a=1)
    if info != 0:
        raise EvaluationError(f"the poles did not converge, LAPACK geev "
                              f"info {info}")
    # the modulus as np.abs takes it of the complex pole, not np.hypot,
    # whose last bits differ
    margin = 1.0 - float(np.abs(wr + 1j * wi).max())
    return margin > 0.0, margin
