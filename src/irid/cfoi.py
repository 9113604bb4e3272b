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

from .errors import EvaluationError, ParamError
from .lti import (FrequencyGrid, FrequencyResponseSeries, _all_finite,
                  _finite_real, _number_array, _positive, _Value)

__all__ = [
    "CfoiParams",
    "cfoi_transfer",
    "cfoi_freq_response",
    "cfoi_freq_grid",
    "cfoi_analytic_impulse",
    "gamma_complex",
]


@dataclass(init=False, repr=False, eq=False)
class CfoiParams(_Value):
    """Order (lam + j*mu) and gain-crossover frequency of one integrator.

    Real numbers (not strings or bools), stored as floats: ``lam`` strictly
    inside (0, 2), ``mu`` in (-1, 0] and ``wgc`` positive and finite.  The
    realizable form above assumes a non-positive imaginary part, and
    ``mu = 0`` is admitted as the real-integrator limit; ``mu = -0.0`` is
    stored as +0.0, so that the order prints as ``+0j``.
    """

    lam: float
    mu: float
    wgc: float

    def __init__(self, lam, mu, wgc):
        if not (_finite_real(lam) and 0.0 < lam < 2.0):
            raise ParamError(f"lambda must lie strictly inside (0, 2), got {lam!r}")
        if not (_finite_real(mu) and -1.0 < mu <= 0.0):
            raise ParamError(f"mu must lie in (-1, 0], got {mu!r}")
        object.__setattr__(self, "lam", float(lam))
        # -0.0 + 0.0 is +0.0; G is the same on either zero
        object.__setattr__(self, "mu", float(mu) + 0.0)
        object.__setattr__(self, "wgc", _positive("wgc", wgc))


# Arrays of this many points or more take the real form of G.  From 256
# points up, numpy's complex log, exp and cos cost as much as the real
# functions they expand to or more; at 128 points the real form costs a
# third more (median per cfoi_transfer call, numpy 2.4 on one CPU of a
# 2-CPU AVX-512 Xeon VM: 17 points 9.1 us direct against 22 us real, 128
# points 17 against 24, 256 points 27 against 27, 512 points 47 against
# 36, 32768 points 2.8 ms against 1.4 ms).  128 is the length of the
# shortest Bromwich line, nilt's at m = 64, so every line takes the one
# real form.  Shorter arrays keep the direct form's bits; nilt's 19-point
# extended call (the qd tail and the initial-value split's two points)
# must, because the continued fraction amplifies any change in its
# rounding.
_REAL_FORM_MIN = 128


def _transfer_polar(p: CfoiParams, modulus: np.ndarray,
                    angle: np.ndarray) -> np.ndarray:
    """G(s) in real arithmetic of the dtype of the flat arrays ``modulus``
    = |s| and ``angle`` = arg s of a checked complex line s, on functions
    that numpy vectorises: no cos or sin, whose float64 loops (like
    hypot's) are scalar libm calls, several times slower than abs, tan,
    cosh or sinh.  ``modulus`` and ``angle`` are overwritten: they serve
    as two of the four real temporaries, of their size, and the output
    is allocated besides.

    L = log(wgc/s) = a + j*b with a = log(wgc/|s|) and b = -arg s, then
    G = exp(lam*L) * cos(mu*L) = (er + j*ei) * (cr + j*ci), er + j*ei =
    e^(lam*a) * (cos(lam*b) + j*sin(lam*b)), cr + j*ci =
    cos(mu*a)*cosh(mu*b) - j*sin(mu*a)*sinh(mu*b).  Each cosine and sine
    comes from the tangent of the half angle, t = tan(x/2): with
    d = 1 + t^2, cos x = (2 - d)/d and sin x = 2*(t/d).  t^2 stays far
    inside the dtype's range at every angle, and each ratio is formed
    before it scales e^(lam*a), cosh or sinh, so every product under- and
    overflows only where the expansion's own factors make it.  tan and
    sinh are odd and cosh is even, so G(conj s) = conj G(s) exactly."""
    a = np.divide(p.wgc, modulus, out=modulus)
    np.log(a, out=a)
    e = np.multiply(p.lam, a)
    np.exp(e, out=e)
    # angle holds -b: lam*b/2 is (-lam/2)*(-b)
    t = np.multiply(-0.5 * p.lam, angle)
    np.tan(t, out=t)
    np.multiply(0.5 * p.mu, a, out=a)
    np.tan(a, out=a)
    b = np.multiply(-p.mu, angle, out=angle)
    # the output's storage holds the scratch lines u and v until its real
    # and imaginary parts are written
    g = np.empty(a.shape, np.promote_types(a.dtype, np.complex64))
    u, v = g.view(a.dtype).reshape(2, -1)
    np.cosh(b, out=u)
    np.sinh(b, out=b)
    # the line a holds tan(mu*a/2): cr into it, -ci = sin(mu*a)*sinh(mu*b)
    # into b
    d = np.square(a, out=v)
    np.add(1, d, out=d)
    np.divide(a, d, out=a)
    np.multiply(a, b, out=b)
    np.add(b, b, out=b)
    np.subtract(2, d, out=a)
    np.divide(a, d, out=a)
    np.multiply(a, u, out=a)
    # the line t holds tan(lam*b/2): er into e, ei into t
    d = np.square(t, out=u)
    np.add(1, d, out=d)
    np.divide(t, d, out=t)
    np.add(t, t, out=t)
    np.multiply(e, t, out=t)
    np.subtract(2, d, out=v)
    np.divide(v, d, out=v)
    np.multiply(e, v, out=e)
    re, im = g.real, g.imag
    # re = er*cr - ei*ci, im = er*ci + ei*cr
    np.multiply(e, a, out=re)
    np.multiply(t, a, out=im)
    np.add(re, np.multiply(t, b, out=a), out=re)
    np.subtract(im, np.multiply(e, b, out=a), out=im)
    return g


def cfoi_transfer(p: CfoiParams, s):
    """G(s) by direct evaluation with the principal-branch logarithm.

    Array in, array out, in the input's complex dtype (real input is
    promoted to the matching complex type), so an extended-precision line
    is evaluated in extended precision; a scalar returns a scalar.
    Scalars and arrays of fewer than 128 points, the extended-precision
    call of :func:`irid.nilt.nilt` among them, take the formula's complex
    operations as written; longer arrays, every Bromwich line of nilt
    among them, take the same formula in real arithmetic, on the polar
    form |s|, arg s, with cosines and sines from half-angle tangents (see
    ``_transfer_polar``), which is twice as fast on nilt's 32768-point
    line at m = 16384.  The two agree to roundoff (within 1e-14 relative
    on Bromwich lines across the documented domain) and underflow
    together; the real form overflows a few samples early where
    (wgc/|s|)**lam leaves the double range but G does not.
    On the negative real axis, outside the half-plane the inversion
    samples, the real form takes the side of the branch cut that the sign
    of a zero imaginary part names (G(conj s) = conj G(s) exactly), where
    the complex division of the direct form gives -2 + 0j and -2 - 0j the
    same value.
    ParamError unless every s is a finite, nonzero int, float or complex
    number (a bool, a string, bytes or None is not a number).
    """
    s = np.asarray(s)
    if s.dtype.kind not in "iufc":
        raise ParamError(f"s must hold numbers, got dtype {s.dtype}")
    if s.dtype.kind != "c":
        s = s.astype(np.result_type(s, 0j))
    if not np.isfinite(s).all():
        raise ParamError("s must be finite")
    if (s == 0).any():
        raise ParamError("transfer function is singular at s = 0")
    if s.size >= _REAL_FORM_MIN:
        # one flat line, so that the output's storage can lend two
        # contiguous real scratch lines of its size; a C-order ``s`` is not
        # copied
        shape, s = s.shape, s.reshape(-1)
        return _transfer_polar(p, np.abs(s),
                               np.arctan2(s.imag, s.real)).reshape(shape)
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
    if not ok.all():
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


def _lanczos(z: complex) -> complex:
    """Gamma(z) for Re(z) >= 0.5 by the Lanczos sum; OverflowError, or a
    value that is not finite, where its power leaves the double range."""
    zz = z - 1.0
    t = zz + _LANCZOS_G + 0.5
    series = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        series += _LANCZOS_C[k] / (zz + k)
    return math.sqrt(2.0 * math.pi) * t ** (zz + 0.5) * cmath.exp(-t) * series


def gamma_complex(z: complex) -> complex:
    """Gamma function for complex argument (Lanczos; reflection for
    Re(z) < 0.5).  Poles at the non-positive integers raise ParamError,
    as does a z that is not a finite int, float or complex number (a
    bool, a string, bytes or None is not a number).

    EvaluationError where the value or a factor of it leaves the double
    range: the Lanczos power t**(z - 0.5), t = z + 607/128 - 0.5, times
    sqrt(2*pi), for real z from about 142.58 up (Gamma itself overflows
    only from 171.62 on) and, by the reflection, for real z below about
    -141.58; and, for Re(z) < 0.5, sin(pi*z) or its product with
    Gamma(1 - z), from about |Im(z)| = 226 on near the imaginary axis.
    """
    # a real z is checked against the double range first: cmath.isfinite
    # raises OverflowError for an int beyond it
    if not (_finite_real(z) if isinstance(z, numbers.Real)
            else isinstance(z, numbers.Complex) and cmath.isfinite(z)):
        raise ParamError(f"gamma argument must be a finite number, "
                         f"got {z!r}")
    z = complex(z)
    if z.real < 0.5 and z.imag == 0.0 and z.real == int(z.real):
        raise ParamError(f"gamma pole at z = {z.real:g}")
    try:
        if z.real < 0.5:
            g = math.pi / (cmath.sin(math.pi * z) * _lanczos(1.0 - z))
        else:
            g = _lanczos(z)
    except OverflowError:
        g = cmath.nan
    if not cmath.isfinite(g):
        raise EvaluationError(f"gamma(z) at z = {z} is out of the double "
                              f"range of its Lanczos evaluation")
    return g


def cfoi_analytic_impulse(p: CfoiParams, t):
    """Exact impulse response h(t) = Re[wgc**nu * t**(nu-1) / gamma(nu)]
    with nu = lam + j*mu.

    Serves as an independent oracle for the numerical inversion; for
    ``mu = 0`` it reduces to ``wgc**lam * t**(lam-1) / gamma(lam)``.
    Array in, array out, gamma(nu) evaluated once per call; a scalar
    returns an ``np.float64``.  Singular at t = 0 when lam < 1, hence
    every t must be a positive, finite int or float, else ParamError (a
    string or a bool is not a number).  EvaluationError where wgc**nu or
    t**(nu-1) alone leaves the double range, even where the value would
    not; for t**(nu-1), as for any value that is not finite, the message
    ends "(sample k)".
    """
    t = _positive_points("t", t)
    nu = complex(p.lam, p.mu)
    try:
        scale = p.wgc ** nu
    except OverflowError:
        raise EvaluationError(f"wgc**nu = {p.wgc:g}**{nu} is out of the "
                              f"double range") from None
    with np.errstate(all="ignore"):
        val = scale * t ** (nu - 1.0) / gamma_complex(nu)
    return _all_finite("analytic impulse response is not finite", val.real)
