import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irid.cfoi import (CfoiParams, _transfer_polar, cfoi_analytic_impulse,
                       cfoi_freq_grid, cfoi_freq_response, cfoi_transfer,
                       gamma_complex)
from irid.errors import EvaluationError, ParamError
from irid.lti import FrequencyGrid

LATTICE = [(lam, mu, wgc)
           for lam in (0.3, 0.5, 1.0, 1.5, 1.9)
           for mu in (0.0, -0.2, -0.4, -0.8)
           for wgc in (0.5, 1.0, 2.0)]


class TestParams:
    @pytest.mark.parametrize("lam", [0.0, 2.0, 2.5, -1.0, math.nan, "1.5"])
    def test_lambda_range(self, lam):
        with pytest.raises(ParamError, match=r"\(0, 2\)"):
            CfoiParams(lam, -0.4, 1.0)

    @pytest.mark.parametrize("mu", [0.1, -1.0, -1.5, math.nan])
    def test_mu_range(self, mu):
        with pytest.raises(ParamError):
            CfoiParams(1.5, mu, 1.0)

    @pytest.mark.parametrize("wgc", [0.0, -1.0, math.inf, True])
    def test_wgc_range(self, wgc):
        with pytest.raises(ParamError):
            CfoiParams(1.5, -0.4, wgc)

    def test_real_integrator_limit_admitted(self):
        assert CfoiParams(1.0, 0.0, 1.0).mu == 0.0

    def test_tiny_negative_mu_admitted(self):
        assert CfoiParams(0.5, -1e-5, 1.0).mu == -1e-5

    def test_negative_zero_mu_stored_as_positive_zero(self):
        assert math.copysign(1.0, CfoiParams(1.5, -0.0, 1.0).mu) == 1.0


class TestTransfer:
    def test_plain_integrator(self):
        assert cfoi_transfer(CfoiParams(1.0, 0.0, 1.0), 2.0) == pytest.approx(0.5)

    def test_half_order_gain(self):
        assert cfoi_transfer(CfoiParams(0.5, 0.0, 4.0), 1.0) == pytest.approx(2.0)

    def test_complex_order_on_axis(self):
        got = cfoi_transfer(CfoiParams(1.5, -0.4, 1.0), 1j)
        want = math.cosh(0.2 * math.pi) * complex(math.cos(0.75 * math.pi),
                                                  -math.sin(0.75 * math.pi))
        assert got == pytest.approx(want, rel=1e-14)
        assert got.real == pytest.approx(-0.8514, abs=1e-4)

    def test_singular_at_zero(self):
        with pytest.raises(ParamError, match="singular at s = 0"):
            cfoi_transfer(CfoiParams(1.0, 0.0, 1.0), 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 100), st.floats(-100, 100))
    def test_conjugate_symmetry(self, re, im):
        p = CfoiParams(1.5, -0.4, 1.0)
        s = complex(re, im)
        a = cfoi_transfer(p, s.conjugate())
        b = cfoi_transfer(p, s).conjugate()
        assert cmath.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)

    def test_real_for_positive_real_s(self):
        p = CfoiParams(1.5, -0.4, 2.0)
        assert abs(cfoi_transfer(p, 3.0).imag) < 1e-15

    @pytest.mark.parametrize("s,match", [
        (True, "s must hold numbers"),
        ([True, True], "s must hold numbers"),
        ("1", "s must hold numbers"),
        (b"1", "s must hold numbers"),
        (None, "s must hold numbers"),
        (math.nan, "s must be finite"),
        (math.inf, "s must be finite"),
        ([1.0 + 1.0j, complex(1.0, math.inf)], "s must be finite"),
        (np.array([1.0, math.nan], dtype=np.clongdouble), "s must be finite"),
    ], ids=["bool", "bool-list", "str", "bytes", "none", "nan", "inf",
            "complex-inf", "clongdouble-nan"])
    def test_non_number_rejected(self, s, match):
        # raised before any arithmetic, so nothing warns
        with pytest.raises(ParamError, match=match):
            cfoi_transfer(CfoiParams(1.5, -0.4, 1.0), s)

    @pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
    def test_bit_equal_to_the_formula(self, dtype):
        # below 128 points the in-place evaluation does the formula's own
        # operations, in its own order and dtype: nilt's 17-point qd tail
        # array, whose rounding the continued fraction amplifies
        p = CfoiParams(1.5, -0.4, 2.0)
        s = (0.9 + 1j * np.linspace(500.0, 520.0, 17)).astype(dtype)
        s_before = s.copy()
        L = np.log(p.wgc / s)
        want = np.exp(p.lam * L) * np.cos(p.mu * L)
        got = cfoi_transfer(p, s)
        assert got.dtype == dtype
        assert np.array_equal(got, want)
        assert np.array_equal(s, s_before)

    def test_real_form_on_bromwich_lines(self):
        # from 128 points on, G is evaluated in real arithmetic, so every
        # line nilt builds takes it, the 128-point lines of m = 64 too; on
        # those and on the 512-point lines of m = 256, for the 135
        # integrators of TestCfoiOracle, it agrees with the formula in
        # clongdouble to 6.5e-15 relative (the direct complex128 form:
        # 4.2e-15).  The worst is at s = c, tm = 20, wgc = 10 and mu =
        # -0.5, where cos(mu*a) = 0.03 takes its absolute rounding to 30
        # times its relative size: cos from tan(mu*a/2) rounds about twice
        # as far as libm's cos there
        worst = 0.0
        for lam, mu, wgc, tm, n in itertools.product(
                (0.1, 0.5, 1.0, 1.5, 1.95), (0.0, -0.5, -0.95),
                (0.1, 1.0, 10.0), (0.5, 2.0, 20.0), (128, 512)):
            p = CfoiParams(lam, mu, wgc)
            T = 2.0 * tm
            s = -math.log(1e-8) / T + 2j * math.pi / T * np.arange(n)
            s_before = s.copy()
            got = cfoi_transfer(p, s)
            assert got.dtype == np.complex128
            assert np.array_equal(s, s_before)
            assert np.array_equal(got, _transfer_polar(
                p, np.abs(s), np.arctan2(s.imag, s.real)))
            L = np.log(p.wgc / s.astype(np.clongdouble))
            want = np.exp(p.lam * L) * np.cos(p.mu * L)
            worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
        assert worst <= 1e-14

    def test_real_form_at_scale_and_at_the_domain_edges(self):
        # the 32768-point line nilt builds at m = 16384 and tm = 1, at the
        # corners of the documented domain: lam 0.001 and 1.999, mu 0 and
        # -0.999, wgc*tm from 1e-3 to 1e3.  Worst 8.5e-15 relative, at
        # lam 1.999, mu -0.999, wgc*tm 1e-3 (the direct complex128 form:
        # 8.4e-15)
        s = -math.log(1e-8) / 2.0 + 1j * math.pi * np.arange(32768)
        s_ext = s.astype(np.clongdouble)
        worst = 0.0
        for lam, mu, wgc in itertools.product(
                (0.001, 1.999), (0.0, -0.999), (1e-3, 1.0, 1e3)):
            p = CfoiParams(lam, mu, wgc)
            got = cfoi_transfer(p, s)
            L = np.log(p.wgc / s_ext)
            want = np.exp(p.lam * L) * np.cos(p.mu * L)
            rel = np.abs(got - want) / np.abs(want)
            worst = max(worst, float(rel.max()))
        assert worst <= 1e-14

    @pytest.mark.parametrize("lam,wgc,tm", [
        (1.5, 1e-250, 1.0), (1.5, 1e300, 1e-6),
        (1.5, 1e-300, 1e6), (1.5, 1e200, 1e6),
        # orders whose 512-point line crosses the underflow edge.  Across
        # the overflow edge the real form overflows with e^(lam*a) a few
        # samples before the direct form's scaled complex exp does, never
        # at the first sample alone
        (1.285, 1e-250, 1.0), (1.093, 1e-300, 1e6),
    ])
    def test_real_form_under_and_overflows_as_the_direct_form(self, lam,
                                                               wgc, tm):
        # the breakdown scales of the pipeline tests, on the line nilt
        # builds at m = 256: the real form gives every value finite, zero
        # or out of range where the direct form does, so nilt's
        # "(sample k)" names the same first non-finite value
        s = -math.log(1e-8) / (2.0 * tm) + 1j * math.pi / tm * np.arange(512)
        for mu in (0.0, -0.4, -0.999):
            p = CfoiParams(lam, mu, wgc)
            with np.errstate(all="ignore"):
                real = cfoi_transfer(p, s)
                direct = np.concatenate(
                    [cfoi_transfer(p, part) for part in np.split(s, 4)])
            finite = np.isfinite(real)
            assert np.array_equal(finite, np.isfinite(direct))
            assert np.array_equal(real == 0, direct == 0)
            assert np.argmin(finite) == np.argmin(np.isfinite(direct))

    @pytest.mark.parametrize("s,rtol", [
        ((0.9 + 1j * np.linspace(0.0, 500.0, 300)).astype(np.complex64), 1e-5),
        ((0.9 + 1j * np.linspace(0.0, 500.0, 300)).astype(np.clongdouble),
         1e-17),
        (np.linspace(0.5, 10.0, 300), 1e-14),
    ], ids=["complex64", "clongdouble", "float64"])
    def test_real_form_keeps_the_dtype(self, s, rtol):
        # real input is promoted to the matching complex type, as before
        p = CfoiParams(1.5, -0.4, 2.0)
        got = cfoi_transfer(p, s)
        assert got.dtype == np.result_type(s, 1j)
        L = np.log(p.wgc / s.astype(np.clongdouble))
        want = np.exp(p.lam * L) * np.cos(p.mu * L)
        assert np.max(np.abs(got - want) / np.abs(want)) <= rtol
        # a 0-d array takes the direct form and returns a scalar
        zero_d = np.asarray(s[7])
        assert np.ndim(cfoi_transfer(p, zero_d)) == 0
        assert cfoi_transfer(p, zero_d) == cfoi_transfer(p, s[7:8])[0]

    def test_real_form_keeps_the_shape(self):
        # a 2-D array in either memory order, or a strided view of one,
        # gets the bits of the same points evaluated as one flat line
        p = CfoiParams(1.5, -0.4, 2.0)
        s = (0.9 + 1j * np.linspace(0.0, 500.0, 600)).reshape(20, 30)
        for arr in (s, np.asfortranarray(s), s[:, ::2]):
            got = cfoi_transfer(p, arr)
            assert got.shape == arr.shape
            assert np.array_equal(got.ravel(), cfoi_transfer(p, arr.ravel()))

    def test_real_form_on_the_negative_real_axis(self):
        # the real form keeps conjugate symmetry on the branch cut: -2 - 0j
        # gets the conjugate of -2 + 0j, where the direct form's complex
        # division gives both the value of -2 + 0j
        p = CfoiParams(1.5, -0.4, 1.0)
        s = np.full(256, 1.0 + 1j)
        s[:2] = complex(-2.0, 0.0), complex(-2.0, -0.0)
        above, below = cfoi_transfer(p, s)[:2]
        direct = cfoi_transfer(p, s[:2])
        assert direct[0] == direct[1]
        assert above == pytest.approx(direct[0], rel=1e-15)
        assert below == above.conjugate()
        assert above.imag != 0.0

    @pytest.mark.parametrize("s", [2.0, 1.0 + 2.0j])
    def test_scalar_in_scalar_out(self, s):
        got = cfoi_transfer(CfoiParams(1.5, -0.4, 1.0), s)
        assert isinstance(got, np.complexfloating)


class TestFreqResponse:
    def test_real_first_order(self):
        got = cfoi_freq_response(CfoiParams(1.0, 0.0, 2.0), 1.0)
        assert got == pytest.approx(-2j)

    def test_half_order(self):
        got = cfoi_freq_response(CfoiParams(0.5, 0.0, 1.0), 1.0)
        assert got == pytest.approx(complex(0.70711, -0.70711), abs=1e-5)

    def test_complex_order_at_crossover(self):
        got = cfoi_freq_response(CfoiParams(1.5, -0.4, 1.0), 1.0)
        assert got == pytest.approx(complex(-0.8513368287303915,
                                            -0.8513368287303915), rel=1e-12)

    def test_overflow_raises_without_warning(self):
        # (wgc/omega)**lam = 1e165**1.9 is out of the double range
        with pytest.raises(EvaluationError, match="not finite"):
            cfoi_freq_response(CfoiParams(1.9, 0.0, 1e160), 1e-5)

    @pytest.mark.parametrize("lam,mu,wgc", itertools.product(
        (1.5, 1.95), (0.0, -0.95), (1.0, 1e10)))
    def test_formula_bits_where_g_underflows(self, lam, mu, wgc):
        # the expression's own bits, also where (wgc/omega)**lam underflows
        # and only the signs of the zero parts are left of G: writing the
        # two parts straight into one complex array would change them
        omega = np.logspace(-5, 300, 500)
        with np.errstate(all="ignore"):
            x = mu * np.log(wgc / omega)
            a = math.cosh(mu * math.pi / 2.0) * np.cos(x)
            b = math.sinh(mu * math.pi / 2.0) * np.sin(x)
            c = math.cos(lam * math.pi / 2.0)
            d = math.sin(lam * math.pi / 2.0)
            pref = (wgc / omega) ** lam
            want = pref * (a * c + b * d) + 1j * (pref * (b * c - a * d))
        got = cfoi_freq_response(CfoiParams(lam, mu, wgc), omega)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("omega", [0.0, -1.0])
    def test_domain_error(self, omega):
        with pytest.raises(ParamError, match="omega must be positive"):
            cfoi_freq_response(CfoiParams(1.0, 0.0, 1.0), omega)

    @pytest.mark.parametrize("omega", ["1.0", b"1.0", True, [True, True],
                                       1.0 + 0j, [1.0, None]],
                             ids=["str", "bytes", "bool", "bool-list",
                                  "complex", "object"])
    def test_non_real_omega_rejected(self, omega):
        with pytest.raises(ParamError, match="omega must hold real numbers"):
            cfoi_freq_response(CfoiParams(1.0, 0.0, 1.0), omega)

    @pytest.mark.parametrize("lam,mu,wgc", LATTICE)
    def test_agrees_with_direct_evaluation(self, lam, mu, wgc):
        p = CfoiParams(lam, mu, wgc)
        for w in (1e-3, 0.7, 1.0, 13.0, 1e3):
            a = cfoi_freq_response(p, w)
            b = cfoi_transfer(p, 1j * w)
            assert abs(a - b) <= 1e-12 * abs(b)

    @pytest.mark.parametrize("lam", [0.3, 0.5, 1.0, 1.5, 1.9])
    def test_real_limit_reduction(self, lam):
        p = CfoiParams(lam, 0.0, 1.3)
        for w in (1e-3, 0.1, 1.0, 42.0, 1e3):
            want = (p.wgc / (1j * w)) ** lam
            got = cfoi_freq_response(p, w)
            assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("lam,mu,wgc", LATTICE)
    def test_crossover_gain_anchor(self, lam, mu, wgc):
        g = cfoi_freq_response(CfoiParams(lam, mu, wgc), wgc)
        assert abs(abs(g) - math.cosh(mu * math.pi / 2)) <= 1e-12


class TestFreqGrid:
    def test_single_point(self):
        fr = cfoi_freq_grid(CfoiParams(1.0, 0.0, 1.0), FrequencyGrid([1.0]))
        assert fr.response[0] == pytest.approx(-1j)

    def test_matches_pointwise_calls(self):
        p = CfoiParams(1.5, -0.4, 1.0)
        grid = FrequencyGrid([0.5, 2.0])
        fr = cfoi_freq_grid(p, grid)
        for w, v in zip(grid.omegas, fr.response):
            assert v == cfoi_freq_response(p, w)

    def test_average_magnitude_slope(self):
        import numpy as np
        p = CfoiParams(1.5, -0.4, 1.0)
        grid = FrequencyGrid.log_spaced(0.01, 100.0, 200)
        fr = cfoi_freq_grid(p, grid)
        slope = np.polyfit(np.log10(grid.omegas), fr.magnitude_db(), 1)[0]
        assert slope == pytest.approx(-30.0, abs=0.1)


class TestGamma:
    @pytest.mark.parametrize("z", [0.5, 1.0, 1.5, 2.5, 5.0, -0.5, -2.3,
                                   complex(1.5, -0.4), complex(0.5, 3.0),
                                   complex(-1.2, 0.7), complex(0.1, -2.0)])
    def test_against_mpmath(self, z):
        mpmath.mp.dps = 30
        want = complex(mpmath.gamma(mpmath.mpc(complex(z).real,
                                               complex(z).imag)))
        got = gamma_complex(z)
        assert abs(got - want) <= 1e-13 * abs(want)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.51, 4.0), st.floats(-3.0, 3.0))
    def test_reflection_identity(self, re, im):
        # keep a margin from the poles at non-positive integers of 1 - z,
        # where both sides blow up and relative comparison is meaningless
        assume(abs(im) > 0.05 or abs(re - round(re)) > 0.05)
        z = complex(re, im)
        lhs = gamma_complex(z) * gamma_complex(1.0 - z)
        rhs = math.pi / cmath.sin(math.pi * z)
        assert cmath.isclose(lhs, rhs, rel_tol=1e-9)

    @pytest.mark.parametrize("z", [True, "2", b"1", None, math.nan,
                                   complex(math.inf, 0.0)],
                             ids=["bool", "str", "bytes", "none", "nan",
                                  "inf"])
    def test_non_number_rejected(self, z):
        with pytest.raises(ParamError, match="must be a finite number"):
            gamma_complex(z)

    def test_pole_raises(self):
        with pytest.raises(ParamError, match="gamma pole at z = 0"):
            gamma_complex(0.0)
        with pytest.raises(ParamError, match="gamma pole at z = -3"):
            gamma_complex(-3.0)

    @pytest.mark.parametrize("z", [142.7, 143.0, 150.0, 171.0, -150.5,
                                   complex(-0.5, 230.0)])
    def test_out_of_double_range_raises(self, z):
        # math.gamma(143) = 2.7e245 is finite, but the Lanczos power
        # t**(z - 0.5) is not; at 142.7 only its product with sqrt(2*pi)
        # leaves the double range, and at Im(z) = 230 sin(pi*z) does
        with pytest.raises(EvaluationError, match="out of the double range"):
            gamma_complex(z)

    @pytest.mark.parametrize("z", [141.0, 142.5, -141.5])
    def test_exact_near_the_range_limit(self, z):
        assert gamma_complex(z).real == pytest.approx(math.gamma(z),
                                                      rel=1e-14)


class TestAnalyticImpulse:
    def test_unit_step(self):
        p = CfoiParams(1.0, 0.0, 1.0)
        assert cfoi_analytic_impulse(p, 3.0) == pytest.approx(1.0)

    def test_half_order(self):
        p = CfoiParams(0.5, 0.0, 1.0)
        assert cfoi_analytic_impulse(p, 1.0) == pytest.approx(
            0.56418958354775629, rel=1e-13)

    def test_complex_order_value(self):
        p = CfoiParams(1.5, -0.4, 1.0)
        got = cfoi_analytic_impulse(p, 1.0)
        assert got == pytest.approx(1.2139208114219907, rel=1e-12)
        mpmath.mp.dps = 30
        want = (1 / mpmath.gamma(mpmath.mpc(1.5, -0.4))).real
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_array_in_array_out(self):
        # one expression over the array, against 40-digit values on every
        # tenth point
        p = CfoiParams(1.5, -0.4, 1.0)
        t = np.geomspace(1e-6, 1e3, 1000)
        got = cfoi_analytic_impulse(p, t)
        assert got.shape == t.shape
        with mpmath.workdps(40):
            nu = mpmath.mpc(p.lam, p.mu)
            want = [float((mpmath.mpf(p.wgc) ** nu * mpmath.mpf(x) ** (nu - 1)
                           / mpmath.gamma(nu)).real) for x in t[::10]]
        np.testing.assert_allclose(got[::10], want,
                                   rtol=1000 * np.finfo(float).eps, atol=0.0)
        assert isinstance(cfoi_analytic_impulse(p, 1.0), float)
        with pytest.raises(ParamError, match="t must be positive"):
            cfoi_analytic_impulse(p, [1.0, 0.0])

    def test_domain_error(self):
        with pytest.raises(ParamError, match="t must be positive"):
            cfoi_analytic_impulse(CfoiParams(0.5, 0.0, 1.0), 0.0)
        with pytest.raises(ParamError, match="t must be positive"):
            cfoi_analytic_impulse(CfoiParams(0.5, 0.0, 1.0), -1.0)
        with pytest.raises(ParamError, match="t must hold real numbers"):
            cfoi_analytic_impulse(CfoiParams(0.5, 0.0, 1.0), "0.5")

    @pytest.mark.parametrize("t,k", [(5e-324, 0), ([1.0, 5e-324], 1)])
    def test_non_finite_value_raises(self, t, k):
        # t**(nu - 1) = 5e-324**-0.99 overflows, without a warning
        with pytest.raises(EvaluationError,
                           match=rf"not finite \(sample {k}\)$"):
            cfoi_analytic_impulse(CfoiParams(0.01, 0.0, 1.0), t)

    @pytest.mark.parametrize("lam,mu,wgc,t", [(1.5, -0.4, 1e250, 1.0),
                                              (1.9, -0.5, 1e300, 1e-300)])
    def test_power_out_of_double_range_raises(self, lam, mu, wgc, t):
        # wgc**nu overflows, though at t = 1e-300 the value, about 1e300,
        # would not
        with pytest.raises(EvaluationError,
                           match=r"^wgc\*\*nu = .* out of the double range$"):
            cfoi_analytic_impulse(CfoiParams(lam, mu, wgc), t)
