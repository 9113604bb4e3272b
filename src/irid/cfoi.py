"""Exact mathematics of the complex fractional order integrator.

An integrator of complex order ``lam + j*mu`` is realized here as the
real-coefficient transfer function

    G(s) = (wgc/s)**lam * cos(mu * ln(wgc/s)),

which for ``mu = 0`` reduces to the ordinary fractional integrator
``(wgc/s)**lam``.  ``wgc`` is the gain-crossover frequency: at
``omega = wgc`` the magnitude equals ``cosh(mu*pi/2)`` exactly.  Two
independent evaluation paths are provided (direct evaluation of G(s) from
log(wgc/s), in complex arithmetic for scalars and short arrays and in real
arithmetic for long ones, and an expanded real/imaginary form of
G(j*omega)) together with an analytic impulse-response oracle based on a
complex-argument gamma function.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParamError
from .lti import (FrequencyGrid, FrequencyResponseSeries, _all_finite,
                  _finite_real, _number_array, _positive)

__all__ = [
    "CfoiParams",
    "cfoi_transfer",
    "cfoi_freq_response",
    "cfoi_freq_grid",
    "cfoi_analytic_impulse",
    "gamma_complex",
]


@dataclass(frozen=True)
class CfoiParams:
    """Order (lam + j*mu) and gain-crossover frequency of one integrator.

    Real numbers (not strings or bools), stored as floats: ``lam`` strictly
    inside (0, 2), ``mu`` in (-1, 0] and ``wgc`` positive and finite.  The
    realizable form above assumes a non-positive imaginary part, and
    ``mu = 0`` is admitted as the real-integrator limit.
    """

    lam: float
    mu: float
    wgc: float

    def __post_init__(self):
        lam, mu = self.lam, self.mu
        if not (_finite_real(lam) and 0.0 < lam < 2.0):
            raise ParamError(f"lambda must lie strictly inside (0, 2), got {lam!r}")
        if not (_finite_real(mu) and -1.0 < mu <= 0.0):
            raise ParamError(f"mu must lie in (-1, 0], got {mu!r}")
        object.__setattr__(self, "lam", float(lam))
        object.__setattr__(self, "mu", float(mu))
        object.__setattr__(self, "wgc", _positive("wgc", self.wgc))


# Arrays of this many points or more take the real form of G: from about
# here up, numpy's complex log, exp and cos cost more than the real
# functions they expand to (median per call on one CPU of a 2-CPU Xeon
# VM: 17 points 11 us direct against 28 us real, 256 points 48 against
# 43, 512 points 85 against 68, 32768 points 5.8 ms against 3.6 ms).
# Shorter arrays keep the direct form's bits; the 17-point qd tail must,
# because the continued fraction amplifies any change in its rounding.
_REAL_FORM_MIN = 256


def _transfer_real(p: CfoiParams, s: np.ndarray) -> np.ndarray:
    """G(s) in real arithmetic of the dtype of ``s``, a checked complex
    array: L = log(wgc/s) = a + j*b with a = log(wgc/|s|) and
    b = -arctan2(Im s, Re s), then G = exp(lam*L) * cos(mu*L) =
    (er + j*ei) * (cr + j*ci), er + j*ei = e^(lam*a) * (cos(lam*b) +
    j*sin(lam*b)), cr + j*ci = cos(mu*a)*cosh(mu*b) -
    j*sin(mu*a)*sinh(mu*b).  The minus signs of b and ci ride on the
    multiplications, which is exact, so every product and sum is the one
    the expansion names, in its order."""
    x, y = s.real, s.imag
    a = np.hypot(x, y)
    np.divide(p.wgc, a, out=a)
    np.log(a, out=a)
    b = np.arctan2(y, x)  # holds -b: lam*b is formed as (-lam)*(-b)
    e = np.multiply(p.lam, a)
    np.exp(e, out=e)
    t = np.multiply(-p.lam, b)
    er = np.cos(t)
    np.multiply(e, er, out=er)
    np.sin(t, out=t)
    np.multiply(e, t, out=t)  # ei
    np.multiply(p.mu, a, out=a)
    np.multiply(-p.mu, b, out=b)
    np.cosh(b, out=e)
    cr = np.cos(a)
    np.multiply(cr, e, out=cr)
    np.sinh(b, out=b)
    np.sin(a, out=a)
    np.multiply(a, b, out=a)  # -ci
    g = np.empty_like(s)
    re, im = g.real, g.imag
    # re = er*cr - ei*ci, im = er*ci + ei*cr
    np.multiply(er, cr, out=re)
    np.add(re, np.multiply(t, a, out=b), out=re)
    np.multiply(t, cr, out=im)
    np.subtract(im, np.multiply(er, a, out=b), out=im)
    return g


def cfoi_transfer(p: CfoiParams, s):
    """G(s) by direct evaluation with the principal-branch logarithm.

    Array in, array out, in the input's complex dtype (real input is
    promoted to the matching complex type), so an extended-precision line
    is evaluated in extended precision; a scalar returns a scalar.
    Scalars and arrays of fewer than 256 points, the qd tail of
    :func:`irid.nilt.nilt` among them, take the formula's complex
    operations as written; longer arrays take the same formula in real
    arithmetic (see ``_transfer_real``), which agrees to roundoff and is
    faster there.  On the negative real axis, outside the half-plane the
    inversion samples, the real form takes the side of the branch cut
    that the sign of a zero imaginary part names (G(conj s) = conj G(s)
    exactly), where the complex division of the direct form gives
    -2 + 0j and -2 - 0j the same value.
    ParamError unless every s is a finite, nonzero int, float or complex
    number (a bool, a string, bytes or None is not a number).
    """
    s = np.asarray(s)
    if s.dtype.kind not in "iufc":
        raise ParamError(f"s must hold numbers, got dtype {s.dtype}")
    if not np.iscomplexobj(s):
        s = s.astype(np.result_type(s, 0j))
    if not np.all(np.isfinite(s)):
        raise ParamError("s must be finite")
    if np.any(s == 0):
        raise ParamError("transfer function is singular at s = 0")
    if s.size >= _REAL_FORM_MIN:
        return _transfer_real(p, s)
    # the formula's own operations in its order, in two new buffers:
    # L = log(wgc/s) becomes cos(mu*L), lam*L becomes exp(lam*L), then G
    log_w = np.divide(p.wgc, s, out=np.empty_like(s))
    np.log(log_w, out=log_w)
    g = np.multiply(p.lam, log_w, out=np.empty_like(s))
    np.exp(g, out=g)
    np.multiply(p.mu, log_w, out=log_w)
    np.cos(log_w, out=log_w)
    return np.multiply(g, log_w, out=g)[()]


def _positive_points(name: str, x) -> np.ndarray:
    """``x`` as a float64 array (see ``irid.lti._number_array``);
    ParamError unless every entry is positive and finite."""
    x = _number_array(name, x)
    ok = (x > 0.0) & np.isfinite(x)
    if not np.all(ok):
        raise ParamError(f"{name} must be positive and finite, "
                         f"got {float(x[~ok][0])!r}")
    return x


def cfoi_freq_response(p: CfoiParams, omega):
    """G(j*omega) from the expanded real/imaginary parts.

    Independent of :func:`cfoi_transfer`; the two must agree to roundoff,
    which the test suite checks across the admissible parameter range.
    Array in, array out; a scalar returns a scalar.  EvaluationError when
    a value is out of the double range.
    """
    omega = _positive_points("omega", omega)
    with np.errstate(all="ignore"):
        x = p.mu * np.log(p.wgc / omega)
        a = math.cosh(p.mu * math.pi / 2.0) * np.cos(x)
        b = math.sinh(p.mu * math.pi / 2.0) * np.sin(x)
        c = math.cos(p.lam * math.pi / 2.0)
        d = math.sin(p.lam * math.pi / 2.0)
        pref = (p.wgc / omega) ** p.lam
        g = pref * (a * c + b * d) + 1j * (pref * (b * c - a * d))
    return _all_finite("integrator frequency response is not finite", g)[()]


def cfoi_freq_grid(p: CfoiParams, grid: FrequencyGrid) -> FrequencyResponseSeries:
    """:func:`cfoi_freq_response` over a frequency grid."""
    return FrequencyResponseSeries(grid, cfoi_freq_response(p, grid.omegas))


# Lanczos approximation, g = 607/128 with 15 coefficients; about 15
# significant digits over the right half-plane.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517, -59.597960355475491248, 14.136097974741747174,
    -0.49191381609762019978, 0.33994649984811888699e-4,
    0.46523628927048575665e-4, -0.98374475304879564677e-4,
    0.15808870322491248884e-3, -0.21026444172410488319e-3,
    0.21743961811521264320e-3, -0.16431810653676389022e-3,
    0.84418223983852743293e-4, -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def gamma_complex(z: complex) -> complex:
    """Gamma function for complex argument (Lanczos; reflection for
    Re(z) < 0.5).  Poles at the non-positive integers raise ParamError,
    as does a z that is not a finite int, float or complex number (a
    bool, a string, bytes or None is not a number)."""
    # a real z is checked against the double range first: cmath.isfinite
    # raises OverflowError for an int beyond it
    if not (_finite_real(z) if isinstance(z, numbers.Real)
            else isinstance(z, numbers.Complex) and cmath.isfinite(z)):
        raise ParamError(f"gamma argument must be a finite number, "
                         f"got {z!r}")
    z = complex(z)
    if z.real < 0.5:
        if z.imag == 0.0 and z.real == int(z.real):
            raise ParamError(f"gamma pole at z = {z.real:g}")
        return math.pi / (cmath.sin(math.pi * z) * gamma_complex(1.0 - z))
    zz = z - 1.0
    t = zz + _LANCZOS_G + 0.5
    series = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        series += _LANCZOS_C[k] / (zz + k)
    return math.sqrt(2.0 * math.pi) * t ** (zz + 0.5) * cmath.exp(-t) * series


def cfoi_analytic_impulse(p: CfoiParams, t):
    """Exact impulse response h(t) = Re[wgc**nu * t**(nu-1) / gamma(nu)]
    with nu = lam + j*mu.

    Serves as an independent oracle for the numerical inversion; for
    ``mu = 0`` it reduces to ``wgc**lam * t**(lam-1) / gamma(lam)``.
    Array in, array out, gamma(nu) evaluated once per call; a scalar
    returns a float, computed in Python's complex arithmetic, which rounds
    differently from numpy's by up to ~1e-13 relative.  Singular at t = 0
    when lam < 1, hence every t must be positive and finite, else
    ParamError; a scalar t follows the scalar rule, so a string or a bool
    is not a number.
    """
    t = _positive("t", t) if np.ndim(t) == 0 else _positive_points("t", t)
    nu = complex(p.lam, p.mu)
    val = p.wgc ** nu * t ** (nu - 1.0) / gamma_complex(nu)
    return val.real
