import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

import irid.lti
from irid.cfoi import CfoiParams
from irid.errors import EvaluationError, ParamError
from irid.lti import (ContinuousTransferFunction, DiscreteTransferFunction,
                      FrequencyGrid, FrequencyResponseSeries, TimeSeries,
                      _allpole, _expm, _first_non_finite, _horner,
                      _rational_response, continuous_freq_response,
                      continuous_impulse, discrete_freq_response,
                      discrete_impulse, is_stable_discrete)
from irid.pipeline import IridRequest, irid_fcoi


def tf_d(num, den, ts=1.0):
    return DiscreteTransferFunction(num, den, ts)


def tf_c(num, den):
    return ContinuousTransferFunction(num, den)


# scalar arguments are ints, floats or numpy real scalars, and counts are
# integral: a fraction, a string or a bool raises ParamError, and so does a
# grid of more than 2**20 points, before anything is allocated
@pytest.mark.parametrize("call,match", [
    (lambda: discrete_impulse(tf_d([1], [1, -0.5]), 3.5),
     "n must be an integer"),
    (lambda: continuous_impulse(tf_c([1], [1, 1]), 0.1, 2.5),
     "n must be an integer"),
    (lambda: FrequencyGrid.log_spaced(0.1, 1.0, 2.5),
     "npoints must be an integer"),
    (lambda: FrequencyGrid.log_spaced(0.1, 1.0, 2**40),
     "npoints must be <= 1048576"),
    (lambda: TimeSeries(0.0, "0.1", [1.0]), "dt must be positive"),
    (lambda: tf_d([1], [1, 0.5], True), "ts must be positive"),
], ids=["discrete-n", "continuous-n", "grid-npoints", "grid-npoints2**40",
        "series-dt-str", "ts-bool"])
def test_scalar_arguments_checked(call, match):
    with pytest.raises(ParamError, match=match):
        call()


# vector arguments hold ints or floats: numpy must not parse strings or
# bools into numbers, nor drop an imaginary part
@pytest.mark.parametrize("call", [
    lambda: TimeSeries(0.0, 1.0, ["1", "2"]),
    lambda: TimeSeries(0.0, 1.0, "abc"),
    lambda: TimeSeries(0.0, 1.0, [b"1", b"2"]),
    lambda: TimeSeries(0.0, 1.0, [True, False]),
    lambda: TimeSeries(0.0, 1.0, [1.0 + 0j, 2.0]),
    lambda: TimeSeries(0.0, 1.0, [1.0, None]),
    lambda: tf_d(["1"], [1.0]),
    lambda: tf_c([1.0], [True, True]),
    lambda: FrequencyGrid(["1", "2"]),
], ids=["series-str", "series-abc", "series-bytes", "series-bool",
        "series-complex", "series-object", "num-str", "den-bool", "grid-str"])
def test_vector_arguments_must_be_real(call):
    with pytest.raises(ParamError, match="must hold real numbers"):
        call()


class TestPolynomial:
    """Coefficient vectors: checked by the transfer-function constructors;
    the continuous numerator is stored trimmed."""

    def test_empty_rejected(self):
        with pytest.raises(ParamError, match="non-empty 1-D"):
            tf_d([], [1.0])
        with pytest.raises(ParamError, match="non-empty 1-D"):
            tf_c([1.0], [])

    def test_non_vector_rejected(self):
        with pytest.raises(ParamError, match="1-D"):
            tf_d([[1.0, 2.0]], [1.0])
        with pytest.raises(ParamError, match="1-D"):
            tf_c([1.0], 2.0)

    def test_nan_rejected(self):
        with pytest.raises(ParamError, match="finite"):
            tf_d([1.0, math.nan], [1.0])
        with pytest.raises(ParamError, match="finite"):
            tf_c([1.0], [1.0, math.inf])

    def test_normalize_strips_leading_zeros(self):
        # the numerator trims to [1], so g = 1/(s+1) is proper
        ts = continuous_impulse(tf_c([0.0, 0.0, 1.0], [1.0, 1.0]), 0.1, 20)
        np.testing.assert_allclose(ts.values, np.exp(-ts.times),
                                   rtol=1e-12, atol=0)

    def test_normalize_keeps_zero_polynomial(self):
        ts = continuous_impulse(tf_c([0.0, 0.0, 0.0], [1.0, 1.0]), 0.1, 4)
        assert list(ts.values) == [0.0] * 4


class TestTransferFunctionTypes:
    def test_monic_normalization(self):
        g = tf_d([2.0, 4.0], [2.0, 0.0])
        assert g.den.dtype == g.num.dtype == np.float64
        assert g.den.tolist() == [1.0, 0.0]
        assert g.num.tolist() == [1.0, 2.0]
        # 49 * (1/49) rounds to 0.9999999999999999; 49/49 is exactly 1
        g = tf_d([1.0], [49.0, 1.0])
        assert g.den.tolist() == [1.0, 1.0 / 49.0]
        assert g.num.tolist() == [1.0 / 49.0, 0.0]

    def test_zero_leading_denominator_rejected(self):
        with pytest.raises(ParamError, match="leading coefficient"):
            tf_d([1.0], [0.0, 1.0])

    # dividing by a subnormal or tiny leading coefficient overflows; no
    # RuntimeWarning may leak (the suite turns warnings into errors)
    @pytest.mark.parametrize("make,num,den", [
        (tf_d, [1.0], [1e-310, 1.0]),
        (tf_c, [1.0], [1e-310, 1.0]),
        (tf_d, [1e308, 0.0], [1e-5, 1.0]),
    ], ids=["discrete-subnormal-lead", "continuous-subnormal-lead",
            "numerator-overflow"])
    def test_overflowing_normalization_rejected(self, make, num, den):
        with pytest.raises(ParamError, match="overflow"):
            make(num, den)

    def test_bad_ts_rejected(self):
        with pytest.raises(ParamError):
            tf_d([1.0], [1.0], ts=0.0)

    def test_continuous_monic(self):
        g = tf_c([3.0], [3.0, 6.0])
        assert g.den.tolist() == [1.0, 2.0]
        g = tf_c([1.0], [49.0, 1.0])
        assert g.den.tolist() == [1.0, 1.0 / 49.0]
        assert g.num.tolist() == [1.0 / 49.0]

    @pytest.mark.parametrize("num,den,num_stored,den_stored", [
        ([1.0], [1.0, -0.5], [1.0, 0.0], [1.0, -0.5]),
        ([1.0, 2.0, 3.0], [1.0], [1.0, 2.0, 3.0], [1.0, 0.0, 0.0]),
        ([0.5, 0.2], [1.0, -1.1, 0.3], [0.5, 0.2, 0.0], [1.0, -1.1, 0.3]),
    ], ids=["short-num", "fir", "fitted-shape"])
    def test_discrete_stored_equal_length(self, num, den, num_stored,
                                          den_stored):
        g = tf_d(num, den)
        assert g.num.tolist() == num_stored
        assert g.den.tolist() == den_stored
        assert not (g.num.flags.writeable or g.den.flags.writeable)

    def test_continuous_numerator_stored_trimmed(self):
        assert tf_c([0.0, 0.0, 1.0], [1.0, 1.0]).num.tolist() == [1.0]
        assert tf_c([0.0, 0.0, 0.0], [1.0, 1.0]).num.tolist() == [0.0]

    def test_coefficients_are_frozen_copies(self):
        num = np.array([1.0, 2.0])
        for g in (tf_d(num, [1.0, 0.5]), tf_c(num, [1.0, 0.5])):
            for coeffs in (g.num, g.den):
                with pytest.raises(ValueError):
                    coeffs[0] = 5.0
        num[0] = 7.0
        assert g.num.tolist() == [1.0, 2.0]


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(ParamError):
            TimeSeries(0.0, 0.1, [1.0, math.inf])

    @pytest.mark.parametrize("t0", [math.nan, math.inf, "0", True])
    def test_rejects_bad_t0(self, t0):
        with pytest.raises(ParamError, match="t0 must be finite"):
            TimeSeries(t0, 0.1, [1.0, 2.0])

    def test_times(self):
        ts = TimeSeries(0.5, 0.25, [1.0, 2.0, 3.0])
        assert ts.times == pytest.approx([0.5, 0.75, 1.0])

    def test_values_frozen(self):
        ts = TimeSeries(0.0, 1.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 5.0


class TestFrequencyGrid:
    def test_log_spaced_monotone(self):
        g = FrequencyGrid.log_spaced(0.01, 100.0, 200)
        assert len(g) == 200
        assert g.omegas[0] == pytest.approx(0.01)
        assert g.omegas[-1] == pytest.approx(100.0)
        assert np.all(np.diff(g.omegas) > 0)

    def test_single_point_grid_allowed(self):
        assert len(FrequencyGrid([1.0])) == 1

    def test_nonpositive_rejected(self):
        with pytest.raises(ParamError):
            FrequencyGrid([0.0, 1.0])

    def test_decreasing_rejected(self):
        with pytest.raises(ParamError):
            FrequencyGrid([2.0, 1.0])

    def test_bad_bounds(self):
        with pytest.raises(ParamError):
            FrequencyGrid.log_spaced(1.0, 1.0, 10)

    def test_response_length_checked(self):
        with pytest.raises(ParamError):
            FrequencyResponseSeries(FrequencyGrid([1.0, 2.0]), [1 + 0j])

    # a response holds ints, floats or complex numbers, all finite
    @pytest.mark.parametrize("response,match", [
        ([None, None], "must hold complex numbers"),
        (["1", "2"], "must hold complex numbers"),
        ([True, False], "must hold complex numbers"),
        ([1.0, math.nan], "must be finite"),
        ([1.0, complex(0.0, math.inf)], "must be finite"),
    ], ids=["object", "str", "bool", "nan", "inf"])
    def test_response_must_hold_finite_numbers(self, response, match):
        with pytest.raises(ParamError, match=match):
            FrequencyResponseSeries(FrequencyGrid([1.0, 2.0]), response)


class TestDiscreteImpulse:
    def test_geometric_recursion(self):
        h = discrete_impulse(tf_d([1], [1, -0.5]), 4)
        assert h.values == pytest.approx([1, 0.5, 0.25, 0.125])
        assert h.t0 == 0.0 and h.dt == 1.0

    def test_fir_copies_numerator(self):
        h = discrete_impulse(tf_d([1, 2, 3], [1]), 5)
        assert list(h.values) == [1, 2, 3, 0, 0]

    def test_zero_numerator(self):
        h = discrete_impulse(tf_d([0], [1, -0.9]), 3)
        assert list(h.values) == [0, 0, 0]

    def test_overflow_raises(self):
        # 100**k overflows the double range from k = 155 on
        with pytest.raises(EvaluationError, match="overflows"):
            discrete_impulse(tf_d([1.0, 0.0], [1.0, -100.0]), 256)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-100, 100, allow_subnormal=False),
                    min_size=1, max_size=6),
           st.integers(min_value=1, max_value=20))
    def test_fir_identity_exact(self, num, n):
        h = discrete_impulse(tf_d(num, [1.0]), n)
        want = (list(num) + [0.0] * n)[:n]
        assert list(h.values) == want

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-50, 50, allow_subnormal=False).filter(
        lambda a: abs(a) > 1e-6))
    def test_scaling_linearity(self, alpha):
        num, den = [1.0, 0.4], [1.0, -0.9, 0.2]
        base = discrete_impulse(tf_d(num, den), 40).values
        scaled = discrete_impulse(tf_d([alpha * c for c in num], den), 40).values
        np.testing.assert_allclose(scaled, alpha * base, rtol=1e-13, atol=0)


    # dyadic coefficients keep every product and sum exact, so the
    # triangular solve and lfilter's difference equation agree bit for bit
    @pytest.mark.parametrize("num,den,n", [
        ([1.0, 0.5], [1.0, -0.5, 0.25, -0.125, 0.0625], 2),
        ([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, -0.5], 3),
        ([0.5], [1.0, -0.5, 0.25], 10),
        ([1.0, -1.0, 0.5, 0.25], [1.0, 0.5], 10),
        ([2.0, 1.0], [1.0, -0.5], 1),
    ], ids=["n-below-order", "num-longer-than-n", "short-num", "long-num",
            "n1"])
    def test_edge_shapes_match_lfilter(self, num, den, n):
        x = np.zeros(n)
        x[0] = 1.0
        want = scipy.signal.lfilter(num, den, x)
        np.testing.assert_array_equal(discrete_impulse(tf_d(num, den), n).values,
                                      want)


def allpole_den(order, rmax):
    """Monic denominator of the given order: conjugate pole pairs of modulus
    rmax, 0.97*rmax, ... at angles spread over (0, pi), plus one real pole
    for odd orders."""
    pairs = order // 2
    j = np.arange(pairs)
    pair = rmax * 0.97 ** j * np.exp(1j * np.pi * (j + 1) / (pairs + 1))
    real = [rmax * 0.97 ** pairs] * (order % 2)
    return np.real(np.poly(np.concatenate((pair, pair.conj(), real))))


class TestAllPole:
    """The banded triangular solve against scipy.signal.lfilter."""

    @pytest.mark.parametrize("rmax", [0.9, 1.0008], ids=["stable", "growing"])
    @pytest.mark.parametrize("n", [1, 2, 256, 16384])
    @pytest.mark.parametrize("order", range(1, 9))
    def test_agrees_with_lfilter(self, order, n, rmax):
        den = allpole_den(order, rmax)
        data = np.zeros((2, n))
        data[0] = np.random.default_rng(n).standard_normal(n)
        data[1, 0] = 1.0
        for x in (data[:1].T, data.T):
            y = _allpole(den, x.copy(order="F"),
                         np.empty((order + 1, n), order="F"))
            assert y.shape == x.shape
            for col in range(x.shape[1]):
                want = scipy.signal.lfilter([1.0], den, x[:, col])
                err = np.linalg.norm(y[:, col] - want) / np.linalg.norm(want)
                assert err <= 1e-13, (col, err)

    def test_filters_in_place(self):
        # the fit refills its columns and filters them in place through a
        # band in the storage of its regression matrix: LAPACK writes into
        # x and returns it, and every band entry is written, so a band
        # holding NaN or another denominator gives the bits of a fresh one
        den = allpole_den(5, 0.9)
        rng = np.random.default_rng(1)
        x = np.asfortranarray(rng.standard_normal((300, 2)))
        want = _allpole(den, x.copy(order="F"),
                        np.empty((6, 300), order="F"))
        nan = np.full((6, 300), np.nan, order="F")
        other = np.repeat(allpole_den(5, 1.0008)[None, :], 300, axis=0).T
        filled = np.repeat(den[None, :], 300, axis=0).T
        for band in (nan, other):
            y = x.copy(order="F")
            assert _allpole(den, y, band) is y
            assert y.tobytes() == want.tobytes()
            assert np.array_equal(band, filled)


class TestContinuousImpulse:
    @pytest.mark.parametrize("num,den,h", [
        ([1], [1, 1], lambda t: np.exp(-t)),
        # strictly proper, two real poles: (e^-t + e^-3t)/2
        ([1, 2], [1, 4, 3], lambda t: 0.5 * (np.exp(-t) + np.exp(-3 * t))),
        # biproper, direct term 1 acting at t = 0 only: (e^-t - e^-3t)/2
        ([1, 4, 4], [1, 4, 3], lambda t: 0.5 * (np.exp(-t) - np.exp(-3 * t))),
        ([1], [1, -0.5], lambda t: np.exp(0.5 * t)),
        ([1], [1, 0, 1], np.sin),
    ])
    def test_closed_forms(self, num, den, h):
        ts = continuous_impulse(tf_c(num, den), 0.01, 1000)
        assert ts.t0 == ts.dt == 0.01 and len(ts) == 1000
        want = h(ts.times)
        assert np.max(np.abs(ts.values - want)) <= 1e-12 * np.max(np.abs(want))

    def test_constant_is_zero_after_t0(self):
        ts = continuous_impulse(tf_c([2.0], [1.0]), 0.1, 5)
        assert list(ts.values) == [0.0] * 5

    def test_improper_rejected(self):
        with pytest.raises(ParamError, match="proper transfer function"):
            continuous_impulse(tf_c([1, 0, 0], [1, 1]), 0.1, 5)

    def test_overflow_raises(self):
        with pytest.raises(EvaluationError, match="overflows"):
            continuous_impulse(tf_c([1], [1, -1e4]), 0.1, 64)

    def test_overflowing_scale_raises_without_warning(self):
        # dt**2 overflows while the realization is scaled; the response
        # check reports it, and no RuntimeWarning comes first
        with pytest.raises(EvaluationError, match=r"overflows.*\(sample 0\)"):
            continuous_impulse(tf_c([1], [1, 1, 1]), 1e200, 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 1000])
    def test_prefix_of_longer_run(self, n):
        # the doubling fills a partial last block when n is no power of
        # two; every sample still comes out as in a longer run
        g = tf_c([0.5, 1.0, -2.0, 3.0], [1.0, 2.5, 4.0, 3.0, 1.5])
        full = continuous_impulse(g, 0.01, 1024).values
        np.testing.assert_array_equal(continuous_impulse(g, 0.01, n).values,
                                      full[:n])


def companion(den):
    """The companion matrix of the monic ``den``, as continuous_impulse
    builds it: -den[1:] in the first row, ones below the diagonal."""
    order = len(den) - 1
    a = np.zeros((order, order))
    a[0] = -np.asarray(den[1:])
    a[np.arange(1, order), np.arange(order - 1)] = 1.0
    return a


def rel_err(got, want):
    """Relative error in the 1-norm."""
    return np.abs(got - want).sum(axis=0).max() / np.abs(want).sum(axis=0).max()


@st.composite
def stable_poles(draw):
    """1 to 8 poles in the open left half-plane, real or in conjugate pairs,
    of modulus 2**-12 to 8.  Their companion matrices have 1-norms up to
    about 1e5, beyond the 1.5e3 of the domain_sweep lattice's dt-scaled
    models, and scipy's own expm stays accurate on them."""
    order = draw(st.integers(1, 8))
    poles = []
    while len(poles) < order:
        r = 2.0 ** draw(st.floats(-12.0, 3.0))
        if order - len(poles) >= 2 and draw(st.booleans()):
            z = r * np.exp(1j * draw(st.floats(0.5 * np.pi, np.pi,
                                               exclude_min=True)))
            poles += [z, z.conjugate()]
        else:
            poles.append(-r)
    return poles


class TestExpm:
    @settings(max_examples=200, deadline=None)
    @given(stable_poles())
    def test_agrees_with_scipy(self, poles):
        a = companion(np.real(np.poly(poles)))
        assert rel_err(_expm(a), scipy.linalg.expm(a)) <= 1e-12

    @pytest.mark.parametrize("poles", [[-16.0] * 8, [-30.0] * 6],
                             ids=["(s+16)^8", "(s+30)^6"])
    def test_high_norm_companion_against_mpmath(self, poles):
        # 1-norms of 4e9 and 7e8, far above the spectral radius: scaling
        # by the unbalanced 1-norm would square 30 and 28 times and miss by
        # about 1e-7; balanced, the 1-norms are 256 and 308, 6 squarings
        a = companion(np.real(np.poly(poles)))
        with mpmath.workdps(40):
            want = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(),
                            dtype=float)
        assert rel_err(_expm(a), want) <= 1e-12

    @pytest.mark.parametrize("kind", ["dense", "companion"])
    def test_small_norm_against_mpmath(self, kind):
        # 1-norms from 1e-8 to 2.1, below theta_13 before and after
        # balancing, so no squaring; degree 13 meets 1e-15 where Higham's
        # 2005 algorithm would pick a lower degree
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            if kind == "dense":
                a = rng.standard_normal((n, n))
            else:
                a = companion(np.poly(-rng.uniform(0.1, 2.0, n)))
            norm = 10.0 ** rng.uniform(-8.0, math.log10(2.1))
            a *= norm / np.abs(a).sum(axis=0).max()
            with mpmath.workdps(40):
                want = np.array(mpmath.expm(mpmath.matrix(a.tolist()))
                                .tolist(), dtype=float)
            assert rel_err(_expm(a), want) <= 1e-15, seed

    @pytest.mark.parametrize("lam,mu,wgc,tm,m,norder", [
        (1.95, 0.0, 10.0, 20.0, 4096, 8),
        (1.95, -0.95, 0.1, 0.5, 4096, 8),
        (1.0, 0.0, 1.0, 0.5, 4096, 8),
        (0.1, 0.0, 1.0, 2.0, 4096, 8),
        (0.1, -0.5, 10.0, 20.0, 4096, 8),
        (1.5, -0.95, 1.0, 2.0, 4096, 8),
        (0.5, -0.95, 0.1, 20.0, 256, 5),
    ])
    def test_fitted_models_against_mpmath(self, lam, mu, wgc, tm, m, norder):
        # the matrices continuous_impulse exponentiates on the benchmark's
        # domain_sweep lattice: the companion of a fitted G_c's denominator
        # scaled by dt, 1-norms up to 1.5e3 at norder 8.  Over all 810
        # lattice requests and the showcase orders the worst error is
        # 4.8e-15
        req = IridRequest(params=CfoiParams(lam, mu, wgc), tm=tm, wmin=0.01,
                          wmax=100.0, norder=norder, m=m)
        with warnings.catch_warnings():
            # the Nyquist clamp at tm = 20, m = 256
            warnings.simplefilter("ignore")
            res = irid_fcoi(req)
        den = res.gc.den
        a = companion(den * res.h_c.dt ** np.arange(len(den)))
        with mpmath.workdps(40):
            want = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(),
                            dtype=float)
        assert rel_err(_expm(a), want) <= 2e-14

    @pytest.mark.parametrize("x", [-745.0, -1.5, 0.0, 0.3, 709.0])
    def test_one_by_one_is_exp(self, x):
        np.testing.assert_array_equal(_expm(np.array([[x]])), np.exp([[x]]))

    @pytest.mark.parametrize("a", [
        [[np.inf, 0.0], [1.0, 0.0]],
        [[-np.inf, 1.0], [1.0, 0.0]],
        [[np.nan, 0.0], [1.0, 0.0]],
        # finite entries whose column sum overflows
        [[1e308, 0.0], [1e308, 0.0]],
    ], ids=["inf", "-inf", "nan", "norm-overflow"])
    def test_non_finite_gives_nan_without_warning(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _expm(np.array(a))
        assert got.shape == (2, 2) and np.all(np.isnan(got))


class TestFrequencyResponses:
    def test_unity(self):
        fr = discrete_freq_response(tf_d([1], [1]), FrequencyGrid([0.3, 1.0]))
        np.testing.assert_allclose(fr.response, [1, 1])

    def test_pole_zero_cancellation(self):
        fr = discrete_freq_response(tf_d([1, 0], [1, 0]), FrequencyGrid([0.5, 2.0]))
        np.testing.assert_allclose(fr.response, [1, 1], atol=1e-15)

    def test_halfband_value(self):
        fr = discrete_freq_response(tf_d([1, 1], [2, 0], ts=1.0),
                                    FrequencyGrid([math.pi / 2]))
        assert fr.response[0] == pytest.approx(0.5 - 0.5j, abs=1e-15)

    def test_eval_consistency(self):
        # both responses are the np.polyval quotient bit for bit, for
        # numerators as long as the denominator, shorter (stored trimmed,
        # continuous) or padded with zeros (discrete), and a constant model
        grid = FrequencyGrid.log_spaced(0.01, 6.0, 50)
        for num, den in [([1.0, 0.4], [1.0, -0.9, 0.2]),
                         ([-0.3, 1.0, 0.4], [2.0, -0.9, 0.2]),
                         ([0.0, 0.0, 1.5], [1.0, 0.7, 0.2]),
                         ([1.0, 2.0, 3.0], [1.0, 0.5]),
                         ([1.0, -0.2, 0.03, 0.4, -0.1, 0.05],
                          [1.0, -2.1, 1.9, -1.2, 0.4, -0.05]),
                         ([2.5], [0.5])]:
            for g, z, response in [
                    (tf_d(num, den, ts=0.5), np.exp(1j * grid.omegas * 0.5),
                     discrete_freq_response),
                    (tf_c(num, den), 1j * grid.omegas,
                     continuous_freq_response)]:
                want = np.polyval(g.num, z) / np.polyval(g.den, z)
                got = response(g, grid).response
                assert got.tobytes() == want.tobytes(), (num, den, type(g))

    @pytest.mark.parametrize("num,den", [
        ([1.0], [1.0, -0.5]),
        ([1.0, 2.0, 3.0], [1.0]),
        ([0.5, 0.2], [1.0, -1.1, 0.3]),
    ], ids=["short-num", "fir", "fitted-shape"])
    def test_is_dtft_of_impulse_response(self, num, den):
        # one reading for every shape: the response on the unit circle is
        # sum_k h[k] z**-k of the model's own impulse response (poles at
        # most 0.6 in modulus, so 200 samples leave a tail below 1e-40)
        g = tf_d(num, den, ts=0.5)
        grid = FrequencyGrid.log_spaced(0.01, 6.0, 50)
        h = discrete_impulse(g, 200).values
        z = np.exp(1j * grid.omegas * g.ts)
        want = np.power.outer(z, -np.arange(200)) @ h
        np.testing.assert_allclose(discrete_freq_response(g, grid).response,
                                   want, rtol=1e-12)

    def test_warns_above_nyquist(self):
        g = tf_d([1], [1, -0.5], ts=1.0)
        with pytest.warns(UserWarning):
            discrete_freq_response(g, FrequencyGrid([1.0, 10.0]))

    def test_continuous_integrator(self):
        fr = continuous_freq_response(tf_c([1], [1, 0]), FrequencyGrid([1.0]))
        assert fr.response[0] == pytest.approx(-1j)

    def test_continuous_highpass_asymptote(self):
        fr = continuous_freq_response(tf_c([1, 0], [1, 1]),
                                      FrequencyGrid([1e6]))
        assert abs(fr.response[0]) == pytest.approx(1.0, rel=1e-6)

    def test_continuous_first_order(self):
        fr = continuous_freq_response(tf_c([1], [1, 1]), FrequencyGrid([1.0]))
        assert fr.response[0] == pytest.approx(0.5 - 0.5j)

    # leading zeros and -0.0 (a discrete delay, a zero polynomial), one
    # coefficient, and a continuous numerator stored trimmed, shorter than
    # its denominator
    @pytest.mark.parametrize("c", [
        [1.0, -2.1, 1.9, -1.2, 0.4, -0.05],
        [0.0, 0.0, 1.5, -0.3],
        [-0.0, 0.7, -0.2],
        [-0.0, -0.0],
        [0.0],
        [-0.0],
        [2.5],
        tf_c([0.0, -0.0, 1.5, -0.3], [2.0, 0.7, 0.2, 0.1]).num,
    ], ids=["full", "zero-lead", "minus-zero-lead", "minus-zeros", "zero",
            "minus-zero", "constant", "trimmed-continuous"])
    def test_horner_is_polyval(self, c):
        # random complex points, every pair of signed zeros and points on
        # both axes, as the responses evaluate at
        rng = np.random.default_rng(46)
        x = np.concatenate((
            rng.standard_normal(300) + 1j * rng.standard_normal(300),
            [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)],
            np.exp(1j * np.linspace(0.01, 3.1, 50)),
            1j * np.logspace(-3, 3, 50), -1j * np.logspace(-3, 3, 50)))
        c = np.asarray(c)
        with np.errstate(all="ignore"):
            want = np.polyval(c, x)
        assert _horner(c, x).tobytes() == want.tobytes()

    def test_denominator_zero_raises(self):
        g = tf_c([1], [1, 0, 1])  # poles at +-j
        with pytest.raises(EvaluationError, match="denominator vanishes"):
            continuous_freq_response(g, FrequencyGrid([0.5, 1.0]))

    # den(s) = s at these points: a NaN value before or after a vanishing
    # one still names the vanishing one; NaN alone is a response that is
    # not finite
    @pytest.mark.parametrize("points,match", [
        ([math.nan, 1.0, 0.0], r"vanishes near omega=3 rad/s"),
        ([0.0, math.nan, 1.0], r"vanishes near omega=1 rad/s"),
        ([1.0, 1e-301, math.nan], r"vanishes near omega=2 rad/s"),
        ([1.0, math.nan, 2.0], r"not finite \(sample 1\)"),
    ], ids=["nan-first", "nan-after", "tiny-then-nan", "nan-only"])
    def test_vanishing_denominator_outranks_nan(self, points, match):
        grid = FrequencyGrid([1.0, 2.0, 3.0])
        with pytest.raises(EvaluationError, match=match):
            _rational_response(np.array([1.0]), np.array([1.0, 0.0]),
                               np.array(points, complex), grid)

    # |num/dv| ~ 1e305/1e-5 at the lowest frequency: the quotient overflows
    @pytest.mark.parametrize("response", [
        lambda grid: discrete_freq_response(
            tf_d([1e305, 0], [1, -(1 - 1e-5)], 0.01), grid),
        lambda grid: continuous_freq_response(tf_c([1e305], [1, 1e-5]), grid),
    ], ids=["discrete", "continuous"])
    def test_overflow_raises_without_warning(self, response):
        with pytest.raises(EvaluationError, match=r"not finite \(sample 0\)"):
            response(FrequencyGrid.log_spaced(1e-6, 1.0, 5))

    def test_magnitude_and_phase_views(self):
        grid = FrequencyGrid([1.0, 2.0])
        fr = FrequencyResponseSeries(grid, [10.0 + 0j, 0 - 10j])
        np.testing.assert_allclose(fr.magnitude_db(), [20.0, 20.0])
        np.testing.assert_allclose(fr.phase_deg(), [0.0, -90.0])


@pytest.fixture(params=[True, False], ids=["pretest", "scan-only"])
def pretest(request, monkeypatch):
    """Runs a test with and without _first_non_finite's sum pre-test."""
    if not request.param:
        monkeypatch.setattr(irid.lti, "_DOT_TYPES", "")
    return request.param


class TestFirstNonFinite:
    """The one-dot pre-test only ever shortens the entrywise scan: every
    case holds with and without it."""

    # squares beyond the double range: the sum is inf, the scan says finite
    @pytest.mark.parametrize("x", [np.full(1000, 1e200),
                                   np.full(1000, -1e200 + 1e200j),
                                   np.array([1e200, -1e200, 1.0])],
                             ids=["real", "complex", "short"])
    def test_overflowing_sum_of_finite_entries(self, pretest, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _first_non_finite(x) is None

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 500, 999])
    def test_index_of_the_entrywise_scan(self, pretest, dtype, bad, at):
        # a second NaN after the first bad entry, except where that is last
        x = np.linspace(-1.0, 1.0, 1000).astype(dtype)
        x[at] = bad
        x[-1] = x[-1] if at == 999 else math.nan
        assert _first_non_finite(x) == int(np.argmin(np.isfinite(x))) == at

    def test_finite_vector(self, pretest, monkeypatch):
        dots = []

        def vdot(a, b):
            dots.append(a.dtype)
            return np.dot(a.conj(), b)

        monkeypatch.setattr(np, "vdot", vdot)
        assert _first_non_finite(np.linspace(-1.0, 1.0, 1000)) is None
        assert _first_non_finite(np.exp(1j * np.arange(200.0))) is None
        assert dots == ([np.float64, np.complex128] if pretest else [])

    @pytest.mark.parametrize("make,at", [
        # the fit's Fortran-order (n, 2) filter pair: np.vdot would copy it
        (lambda: np.ones((16384, 2), order="F"), (16383, 1)),
        # the k x (k+1) factor, a strided view of its QR's storage
        (lambda: np.ones((256, 7), order="F")[:6, :7], (5, 2)),
        # nilt's extended-precision points
        (lambda: np.ones(19, np.clongdouble), (18,)),
    ], ids=["filter-pair", "factor", "longdouble"])
    def test_other_arrays_skip_the_dot(self, pretest, monkeypatch, make, at):
        def no_dot(*args):
            raise AssertionError("np.vdot called")

        monkeypatch.setattr(np, "vdot", no_dot)
        x = make()
        assert _first_non_finite(x) is None
        x[at] = math.nan
        assert _first_non_finite(x) == np.ravel_multi_index(at, x.shape)


class TestStability:
    def test_stable_pole(self):
        assert is_stable_discrete(tf_d([1], [1, -0.5])) == (True, pytest.approx(0.5))

    def test_unstable_pole(self):
        stable, margin = is_stable_discrete(tf_d([1], [1, -1.5]))
        assert not stable
        assert margin == pytest.approx(-0.5)

    def test_constant_denominator(self):
        assert is_stable_discrete(tf_d([1], [1])) == (True, 1.0)

    def test_margin_equals_np_roots(self):
        # the margin is 1 - max |root| with the roots np.roots finds, bit
        # for bit: denominators padded with trailing zeros (poles at 0),
        # constant ones, poles on and off the unit circle, random ones
        rng = np.random.default_rng(11)
        dens = [[1.0], [3.0], [1.0, 0.0, 0.0], [1.0, -1.0], [1.0, 0.5, 0.0],
                [1.0, -1.5, 0.7, 0.0, 0.0], [1.0, 0.0, 1.0],
                [1, -4.6816, 8.7441, -8.1436, 3.7803, -0.6997]]
        dens += [np.concatenate(([1.0], rng.standard_normal(n),
                                 np.zeros(zeros)))
                 for n in range(1, 9) for zeros in range(3) for _ in range(5)]
        for den in dens:
            g = tf_d([1.0] * len(den), den)
            margin = 1.0 - float(np.max(np.abs(np.roots(g.den)),
                                        initial=0.0))
            assert is_stable_discrete(g) == (margin > 0.0, margin), den
        # a numerator longer than the denominator pads it with zeros
        g = tf_d([1.0, 2.0, 3.0, 4.0], [1.0, -0.5])
        assert g.den.tolist() == [1.0, -0.5, 0.0, 0.0]
        assert is_stable_discrete(g) == (True, 0.5)

    def test_reference_fifth_order_denominator(self):
        # fitted fifth-order reference denominator for order 1.5 - 0.4j:
        # the polynomial has a real root near 1.186, so it is (mildly)
        # unstable, as any good rational fit of an unbounded impulse
        # response must be
        den = [1, -4.6816, 8.7441, -8.1436, 3.7803, -0.6997]
        stable, margin = is_stable_discrete(tf_d([1, 0, 0, 0, 0, 0], den))
        assert not stable
        assert margin == pytest.approx(-0.185968084439, abs=1e-9)
