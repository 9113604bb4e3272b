import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

import irid.lti
import irid.sysid
from irid.cfoi import CfoiParams, cfoi_transfer
from irid.errors import EvaluationError, ParamError, PipelineStageError
from irid.lti import (DiscreteTransferFunction, TimeSeries, _allpole,
                      continuous_impulse, discrete_impulse,
                      is_stable_discrete)
from irid.nilt import nilt
from irid.pipeline import IridRequest, irid_fcoi
from irid.sysid import bilinear_d2c, stmcb_fit


def impulse_of(num, den, n, ts=1.0):
    x = np.zeros(n)
    x[0] = 1.0
    return TimeSeries(0.0, ts, scipy.signal.lfilter(num, den, x))


def regenerate(g: DiscreteTransferFunction, n: int) -> np.ndarray:
    return discrete_impulse(g, n).values


def gelsd_failing_at(fail: int):
    """LAPACK's dgelsd, but reporting info = 1 (an SVD that did not
    converge) on the call of pass ``fail``."""
    real, passes = irid.sysid.dgelsd, itertools.count()

    def gelsd(*args, **kwargs):
        x, s, rank, info = real(*args, **kwargs)
        return x, s, rank, 1 if next(passes) == fail else info
    return gelsd


def _lagged(x: np.ndarray, lags: range, out: np.ndarray) -> np.ndarray:
    """x delayed by each lag, zero prehistory, one lag per column of
    ``out``."""
    n = len(x)
    for col, lag in zip(out.T, lags):
        col[:lag] = 0.0
        col[lag:] = x[:n - lag]
    return out


def lagged_blocks(hf: np.ndarray, xf: np.ndarray, nb: int, na: int,
                  out: np.ndarray) -> np.ndarray:
    """[-lagged hf | lagged xf] by column slices, hf's lags 1..na negated
    after lagging (so its prehistory is -0.0), xf's lags 0..nb."""
    lagged_hf = _lagged(hf, range(1, na + 1), out=out[:, :na])
    np.negative(lagged_hf, out=lagged_hf)
    _lagged(xf, range(0, nb + 1), out=out[:, na:na + nb + 1])
    return out


def full_matrix_stmcb(h: TimeSeries, nb: int, na: int):
    """Reference fit: the data scaled to peak in [0.5, 1) as the fit scales
    it, then five passes, each solving with np.linalg.lstsq on the whole
    n-by-(na + nb + 1) regression matrix."""
    n = len(h.values)
    _, e = math.frexp(np.max(np.abs(h.values)))
    data = np.zeros((n, 2), order="F")
    data[:, 0] = np.ldexp(h.values, -e)
    data[0, 1] = 1.0
    mat = np.empty((n, na + nb + 1), order="F")
    a = np.ones(1)
    for _ in range(5):
        hf, xf = _allpole(a, data.copy(order="F"),
                          np.empty((len(a), n), order="F")).T
        lagged_blocks(hf, xf, nb, na, mat)
        sol, _, _, _ = np.linalg.lstsq(mat, hf, rcond=None)
        a = np.concatenate(([1.0], sol[:na]))
        b = sol[na:]
    return DiscreteTransferFunction(np.ldexp(b, e), a, h.dt)


class TestFitConfig:
    @pytest.mark.parametrize("kw,match", [
        (dict(nb=-1, na=1), "nb must be >= 0"),
        (dict(nb=0, na=0), "na must be >= 1"),
        (dict(nb=2.5, na=1), "nb must be an integer"),
    ], ids=["kw0", "kw1", "kw2"])
    def test_invalid(self, kw, match):
        h = impulse_of([1.0], [1.0, -0.5], 64)
        with pytest.raises(ParamError, match=match):
            stmcb_fit(h, **kw)

    def test_matrix_cap(self):
        # 2**20 samples at order 9 make 2**20 * 20 entries, over the cap of
        # 2**20 * 18; the check runs before anything is allocated
        h = TimeSeries(0.0, 1.0, np.ones(2 ** 20))
        with pytest.raises(ParamError, match="more than 18874368"):
            stmcb_fit(h, 9, 9)


class TestStmcb:
    def test_second_order_exact_recovery(self):
        num, den = [1.0, 0.4], [1.0, -0.9, 0.2]
        h = impulse_of(num, den, 200)
        g = stmcb_fit(h, 1, 2)
        assert np.max(np.abs(regenerate(g, 200) - h.values)) <= 1e-8
        # the numerator is stored padded to the denominator's length
        assert g.num == pytest.approx([1.0, 0.4, 0.0], abs=1e-8)
        assert g.den == pytest.approx(den, abs=1e-8)

    @pytest.mark.parametrize("num,den", [
        # (nb, na) = (0, 1): 3 columns, fewer than the QR's panel of 4
        ([0.7], [1.0, -0.6]),
        # (8, 8): 18 columns, four full panels and a partial one
        ([1.0, -0.5, 0.3, 0.2, -0.1, 0.05, 0.4, -0.3, 0.1],
         np.real(np.poly([0.9, -0.7, 0.6 * np.exp(0.8j), 0.6 * np.exp(-0.8j),
                          0.75 * np.exp(2.2j), 0.75 * np.exp(-2.2j), 0.3,
                          -0.2]))),
    ], ids=["3-columns", "18-columns"])
    def test_in_class_recovery_at_both_widths(self, num, den):
        h = impulse_of(num, den, 200)
        g = stmcb_fit(h, len(num) - 1, len(den) - 1)
        np.testing.assert_allclose(g.den, den, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g.num[:len(num)], num, rtol=0, atol=1e-12)
        assert np.max(np.abs(regenerate(g, 200) - h.values)) <= 1e-12

    # G_c of the README command (order 1.5-0.4j, tm=2, m=1024, norder 5),
    # poles -229 .. +0.065 rad/s: its exact samples at t = dt .. tm are
    # in the (5, 5) class, but fine sampling crowds the poles of z
    # toward 1, where the z-polynomial no longer holds the model.  Fits
    # read 1.84e-9 (m=256), 2.09e-6 (1024), 5.58e-4 (4096), 6.0e-4
    # (16384) and 9.9e-4 (65536) relative L2; the bounds are ~10x these
    @pytest.mark.parametrize("m,bound", [
        (256, 2e-8), (4096, 6e-3), (2 ** 16, 1e-2)])
    def test_in_class_recovery_at_fine_sampling(self, m, bound):
        gc = irid.lti.ContinuousTransferFunction(
            [-3.856030983738839e-05, -0.05697043713214264,
             -13.002521110276962, 643.7165398611941, 9365.385623072121,
             17573.913016392355],
            [1.0, 247.10287123485944, 4157.216507443964, 14795.45563076169,
             8892.329872935834, -646.3832449773352])
        h = continuous_impulse(gc, 2.0 / m, m)
        g = stmcb_fit(h, 5, 5)
        error = np.linalg.norm(regenerate(g, m) - h.values)
        assert error <= bound * np.linalg.norm(h.values)

    def test_fir_truth_with_one_pole(self):
        taps = [0.3, -1.2, 0.8, 0.05, -0.4, 1.1]
        h = TimeSeries(0.0, 1.0, taps + [0.0] * 44)
        g = stmcb_fit(h, 5, 1)
        assert g.num == pytest.approx(taps, abs=1e-9)
        assert abs(g.den[1]) <= 1e-9  # pole at the origin
        assert np.max(np.abs(regenerate(g, 50) - h.values)) <= 1e-8

    def test_overparameterized_recovery(self):
        h = impulse_of([1.0, 0.4], [1.0, -0.9, 0.2], 200)
        g = stmcb_fit(h, 3, 4)
        assert np.max(np.abs(regenerate(g, 200) - h.values)) <= 1e-8

    def test_matches_full_matrix_lstsq(self):
        # full rank: noisy data, fitted in its own class
        rng = np.random.default_rng(7)
        clean = impulse_of([1.0, 0.5, -0.3], [1.0, -1.2, 0.6, -0.1], 200)
        h = TimeSeries(0.0, 1.0, clean.values + 1e-3 * rng.normal(size=200))
        g, ref = stmcb_fit(h, 2, 3), full_matrix_stmcb(h, 2, 3)
        np.testing.assert_allclose(g.num, ref.num, rtol=1e-9)
        np.testing.assert_allclose(g.den, ref.den, rtol=1e-9)
        # rank-deficient: exact (1, 2) data fitted at (3, 4), where the
        # regression has a null space and only the minimum-norm solution
        # is unique
        h = impulse_of([1.0, 0.4], [1.0, -0.9, 0.2], 200)
        g, ref = stmcb_fit(h, 3, 4), full_matrix_stmcb(h, 3, 4)
        assert np.max(np.abs(regenerate(g, 200) - regenerate(ref, 200))) \
            <= 1e-8
        norm = np.linalg.norm(np.concatenate((g.den[1:], g.num)))
        ref_norm = np.linalg.norm(np.concatenate((ref.den[1:], ref.num)))
        assert norm == pytest.approx(ref_norm, rel=1e-6)
        # full rank above the size rule, 2048 rows by 7 columns, where
        # dgeqrt factors the matrix in panels
        clean = impulse_of([1.0, 0.5, -0.3], [1.0, -1.2, 0.6, -0.1], 2048)
        h = TimeSeries(0.0, 1.0, clean.values + 1e-3 * rng.normal(size=2048))
        assert 2048 * 7 > irid.sysid._QR_UNBLOCKED_MAX
        g, ref = stmcb_fit(h, 2, 3), full_matrix_stmcb(h, 2, 3)
        np.testing.assert_allclose(g.num, ref.num, rtol=1e-9)
        np.testing.assert_allclose(g.den, ref.den, rtol=1e-9)

    @pytest.mark.parametrize("nb,na", [(3, 3), (2, 4), (0, 3)],
                             ids=["nb=na", "nb!=na", "nb=0"])
    def test_lag_blocks_equal_column_slices(self, monkeypatch, nb, na):
        # every pass's matrix, as the QR routine of the size rule receives
        # it, dgeqrf at 60 rows and dgeqrt at 2048, holds the lag blocks
        # the column-slice construction gives for its own h_f (last
        # column) and delta_f (the lag-0 column), bit for bit, -0.0
        # included
        k = na + nb + 1
        mats, used = [], []

        def spy(name):
            real = getattr(irid.sysid, name)

            def qr(*args, **kwargs):
                used.append(name)
                mats.append(args[-1].copy(order="F"))
                return real(*args, **kwargs)
            return qr
        for name in ("dgeqrf", "dgeqrt"):
            monkeypatch.setattr(irid.sysid, name, spy(name))
        rng = np.random.default_rng(3)
        for n, routine in ((60, "dgeqrf"), (2048, "dgeqrt")):
            mats.clear()
            used.clear()
            h = impulse_of([1.0, 0.5, -0.3], [1.0, -1.2, 0.6, -0.1], n)
            h = TimeSeries(0.0, 1.0, h.values + 1e-3 * rng.normal(size=n))
            stmcb_fit(h, nb, na)
            assert used == [routine] * 5
            for mat in mats:
                want = np.empty_like(mat, order="F")
                want[:, k] = mat[:, k]
                lagged_blocks(mat[:, k], mat[:, na], nb, na, want)
                assert mat.tobytes(order="F") == want.tobytes(order="F")
                assert np.signbit(mat[0, 0]) and mat[0, 0] == 0.0
            # pass 0 regresses the data, scaled to peak in [0.5, 1), on the
            # unit impulse
            assert np.array_equal(mats[0][:, k], h.values / 2.0)
            assert np.array_equal(mats[0][:, na], np.eye(n)[0])

    def test_peak_memory_near_its_matrix(self):
        # the 18-column matrix of an (8, 8) fit is its one large buffer:
        # the filter's band borrows its storage and the filter works in
        # place, so the fit peaks at about 22 n-length arrays of doubles
        # (33 with a band and a two-column work array of their own)
        n = 2 ** 16
        h = impulse_of([1.0, 0.5], [1.0, -1.9998, 0.9999], n)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            stmcb_fit(h, 8, 8)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 8 * n

    def test_insufficient_data(self):
        h = TimeSeries(0.0, 1.0, np.ones(10))
        with pytest.raises(ParamError, match="need at least 12 samples"):
            stmcb_fit(h, 2, 2)

    def test_ts_copied_from_input(self):
        h = impulse_of([1.0], [1.0, -0.5], 60, ts=0.125)
        g = stmcb_fit(h, 0, 1)
        assert g.ts == 0.125

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 3), st.integers(1, 3), st.integers(0, 2),
           st.integers(0, 2), st.randoms(use_true_random=False))
    def test_exact_recovery_property(self, nb_true, na_true, extra_nb,
                                     extra_na, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2 ** 31))
        radii = rng.uniform(0.15, 0.8, na_true)
        angles = rng.uniform(0.0, np.pi, na_true)
        poles = []
        i = 0
        while i < na_true:
            if i + 1 < na_true and rng.uniform() < 0.5:
                poles += [radii[i] * np.exp(1j * angles[i]),
                          radii[i] * np.exp(-1j * angles[i])]
                i += 2
            else:
                poles.append(radii[i] * np.sign(rng.uniform(-1, 1)))
                i += 1
        den = np.real(np.poly(poles))
        num = rng.normal(size=nb_true + 1)
        num[0] = num[0] if abs(num[0]) > 0.1 else 1.0
        nb, na = nb_true + extra_nb, na_true + extra_na
        n = max(10 * (nb + na), 3 * (nb + na), nb + na + 2, 40)
        h = impulse_of(num, den, n)
        g = stmcb_fit(h, nb, na)
        assert np.max(np.abs(regenerate(g, n) - h.values)) <= 1e-8

    def test_fixed_point_of_iteration(self):
        h = impulse_of([1.0, 0.4], [1.0, -0.9, 0.2], 200)
        g = stmcb_fit(h, 1, 2)
        regen = TimeSeries(0.0, 1.0, regenerate(g, 200))
        again = stmcb_fit(regen, 1, 2)
        for a, b in zip(np.concatenate((g.den, g.num)),
                        np.concatenate((again.den, again.num))):
            assert abs(a - b) <= 1e-6 * max(1.0, abs(a))

    @pytest.mark.parametrize("alpha", [2.0, -0.3, 1e4])
    def test_scale_equivariance(self, alpha):
        base = impulse_of([1.0, 0.4], [1.0, -0.9, 0.2], 120)
        scaled = TimeSeries(0.0, 1.0, alpha * base.values)
        g0 = stmcb_fit(base, 1, 2)
        g1 = stmcb_fit(scaled, 1, 2)
        np.testing.assert_allclose(g1.den, g0.den, rtol=1e-10)
        np.testing.assert_allclose(g1.num, alpha * g0.num, rtol=1e-10)

    def test_zero_data_raises_singular(self):
        h = TimeSeries(0.0, 1.0, np.zeros(40))
        with pytest.raises(EvaluationError, match="all-zero"):
            stmcb_fit(h, 1, 2)

    def test_power_of_two_equivariance(self):
        # the fit scales its data to peak in [0.5, 1) by a power of two, so
        # 2**k times the data fits to the same bits, numerator times 2**k
        base = impulse_of([1.0, 0.4], [1.0, -0.9, 0.2], 120)
        g0 = stmcb_fit(base, 1, 2)
        for k in range(-900, 901, 50):
            g = stmcb_fit(TimeSeries(0.0, 1.0, np.ldexp(base.values, k)), 1, 2)
            assert np.array_equal(g.den, g0.den), k
            assert np.array_equal(g.num, np.ldexp(g0.num, k)), k

    def test_numerator_overflow_when_scaled_back(self):
        # the data peaks at 1.1e308 and the numerator it fits, b1 = 2e308,
        # is out of the double range
        h = impulse_of([1.0, 2.0], [1.0, 0.9], 60)
        with pytest.raises(EvaluationError, match="numerator overflows"):
            stmcb_fit(TimeSeries(0.0, 1.0, 1e308 * h.values), 1, 1)

    def test_non_finite_iterate_reports_index(self):
        # finite data growing from 1e-300 to 1e300: the first (unfiltered)
        # pass fits a pole near 1.4e10, which makes the second prefilter
        # pass overflow the unit impulse at time index 31, the data nowhere
        n = 60
        h = TimeSeries(0.0, 1.0, 10.0 ** (600 / (n - 1) * np.arange(n) - 300))
        with pytest.raises(EvaluationError,
                           match=r"^prefiltered impulse overflowed "
                                 r"\(iteration 1\) \(sample 31\)$"):
            stmcb_fit(h, 0, 1)

    def test_overflowing_factor_raises_before_lapack(self, capfd):
        # 1.1**k up to 1.1e308: the first pass fits the pole 1.1, the
        # prefiltered unit impulse stays finite, the norm of its column,
        # and so the QR factor, does not; handing that to lstsq made LAPACK
        # print to stderr and numpy raise LinAlgError.  The message names
        # the factor's first non-finite entry by row and column
        h = TimeSeries(0.0, 1.0, 1.1 ** np.arange(7443))
        with pytest.raises(EvaluationError,
                           match=r"^least-squares factor is non-finite "
                                 r"\(iteration 1\) \(row 0, column 1\)$"):
            stmcb_fit(h, 0, 1)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("j,coef", [(0, "a[1]"), (1, "a[2]"),
                                        (2, "b[0]"), (4, "b[2]")])
    def test_non_finite_solution_names_the_coefficient(self, monkeypatch,
                                                       j, coef):
        # the solution holds a[1..na], then b[0..nb]; a solve that returns
        # NaN at entry j is reported by the coefficient it stands for
        def nan_at_j(*args, **kwargs):
            sol, *rest = irid.sysid._flapack.dgelsd(*args, **kwargs)
            sol[j] = np.nan
            return (sol, *rest)

        monkeypatch.setattr(irid.sysid, "dgelsd", nan_at_j)
        h = impulse_of([1.0, 0.5, 0.25], [1.0, -0.5, 0.06], 60)
        with pytest.raises(EvaluationError,
                           match=rf"^least-squares solution is non-finite "
                                 rf"\(iteration 0\) \(coefficient "
                                 rf"{re.escape(coef)}\)$"):
            stmcb_fit(h, 2, 2)

    def test_keeps_the_iterate_with_least_output_error(self, monkeypatch):
        # the README command's data: its five iterates' output errors are
        # 0.14, 4.3e-5, 1.1e-3, 3.4e-4 and 3.4e-4 of the data's norm, so
        # the second is kept.  With j passes the fit keeps the best of the
        # first j iterates, so the output error cannot rise with j, and a
        # later, worse iterate is dropped.
        tm, m = 2.0, 1024
        ref = nilt(lambda s: cfoi_transfer(CfoiParams(1.5, -0.4, 1.0), s),
                   tm, m)
        h = TimeSeries(ref.t0, ref.dt, (tm / m) * ref.values)
        fits, errors = [], []
        for passes in range(1, 6):
            monkeypatch.setattr(irid.sysid, "_PASSES", passes)
            g = stmcb_fit(h, 5, 5)
            fits.append(g)
            errors.append(np.linalg.norm(h.values - regenerate(g, m)))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-3 * errors[0]
        for g in fits[2:]:
            assert np.array_equal(g.den, fits[1].den)
            assert np.array_equal(g.num, fits[1].num)

    def test_no_finite_output_error_raises(self, monkeypatch):
        # one pass over data growing from 1e-300 to 1e300 fits a pole near
        # 1.4e10, whose impulse response overflows: no iterate to keep
        monkeypatch.setattr(irid.sysid, "_PASSES", 1)
        n = 60
        h = TimeSeries(0.0, 1.0, 10.0 ** (600 / (n - 1) * np.arange(n) - 300))
        with pytest.raises(EvaluationError,
                           match="no iterate has a finite output error"):
            stmcb_fit(h, 0, 1)

    def test_failed_solve_names_its_iteration(self, monkeypatch):
        monkeypatch.setattr(irid.sysid, "dgelsd", gelsd_failing_at(2))
        h = impulse_of([1.0, 0.4], [1.0, -0.9, 0.2], 200)
        with pytest.raises(EvaluationError,
                           match=r"gelsd info 1 \(iteration 2\)"):
            stmcb_fit(h, 1, 2)

    def test_failed_solve_is_a_fit_stage_error(self, monkeypatch):
        monkeypatch.setattr(irid.sysid, "dgelsd", gelsd_failing_at(0))
        req = IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                          wmin=0.01, wmax=100.0, norder=5, m=256)
        with pytest.raises(PipelineStageError) as err:
            irid_fcoi(req)
        assert err.value.stage == "fit"
        assert isinstance(err.value.cause, EvaluationError)
        assert "(iteration 0)" in str(err.value.cause)

    def test_path_loaded_lapack_gives_scipy_linalg_bits(self, monkeypatch):
        # irid loads scipy's LAPACK extension by file path, not through
        # scipy.linalg: the showcase fit at m = 256 (dgeqrf) and m = 16384
        # (dgeqrt), its stability margin (dgeev) and its continuous
        # model's impulse response (dgebal, dgesv) come out bit for bit as
        # with scipy.linalg.lapack's routines, which are other objects
        lapack = scipy.linalg.lapack
        routines = [(irid.sysid, "dgeqrf"), (irid.sysid, "dgeqrt"),
                    (irid.sysid, "dgelsd"), (irid.sysid, "dgelsd_lwork"),
                    (irid.lti, "dtbtrs"), (irid.lti, "dgebal"),
                    (irid.lti, "dgesv"), (irid.lti, "dgeev")]
        for module, name in routines:
            assert getattr(module, name) is not getattr(lapack, name), name
        for m in (256, 16384):
            h_ref = nilt(lambda s: cfoi_transfer(CfoiParams(1.5, -0.4, 1.0),
                                                 s), 2.0, m)
            data = TimeSeries(h_ref.t0, h_ref.dt, h_ref.dt * h_ref.values)
            fits = []
            for patched in (False, True):
                with monkeypatch.context() as patch:
                    if patched:
                        for module, name in routines:
                            patch.setattr(module, name, getattr(lapack, name))
                    g = stmcb_fit(data, 5, 5)
                    h_c = continuous_impulse(bilinear_d2c(g), h_ref.dt, m)
                    fits.append((g.num, g.den, regenerate(g, m), h_c.values,
                                 is_stable_discrete(g)[1]))
            for got, want in zip(*fits):
                np.testing.assert_array_equal(got, want)


class TestBilinear:
    def test_identity(self):
        g = DiscreteTransferFunction([1.0], [1.0], 0.1)
        gc = bilinear_d2c(g)
        assert gc.num == pytest.approx([1.0])
        assert gc.den == pytest.approx([1.0])

    def test_forward_euler_like_integrator(self):
        # (z+1)/(z-1) with ts=2 maps exactly to 1/s
        g = DiscreteTransferFunction([1.0, 1.0], [1.0, -1.0], 2.0)
        gc = bilinear_d2c(g)
        assert np.trim_zeros(gc.num, "f") == pytest.approx([1.0])
        assert gc.den == pytest.approx([1.0, 0.0])
        rng = np.random.default_rng(3)
        for s in rng.uniform(0.1, 5, 10) + 1j * rng.uniform(-5, 5, 10):
            z = (1 + s) / (1 - s)
            want = np.polyval(g.num, z) / np.polyval(g.den, z)
            got = np.polyval(gc.num, s) / np.polyval(gc.den, s)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_pointwise_identity_random_stable(self):
        rng = np.random.default_rng(42)
        ts = 0.01
        poles = rng.uniform(0.2, 0.9, 5) * np.exp(
            1j * np.r_[rng.uniform(0, np.pi, 2), 0, 0, 0])
        poles = np.r_[poles[:2], np.conj(poles[:2]), poles[4].real]
        den = np.real(np.poly(poles))
        num = rng.normal(size=6)
        g = DiscreteTransferFunction(num, den, ts)
        gc = bilinear_d2c(g)
        mags = (2.0 / ts) * 10.0 ** rng.uniform(-1.5, 0.5, 100)
        angs = rng.uniform(-0.47 * np.pi, 0.47 * np.pi, 100)
        for s in mags * np.exp(1j * angs):
            z = (1 + s * ts / 2) / (1 - s * ts / 2)
            want = np.polyval(g.num, z) / np.polyval(g.den, z)
            got = np.polyval(gc.num, s) / np.polyval(gc.den, s)
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_fir_poles_in_left_half_plane(self):
        # 1 + 2/z + 3/z**2 has a double pole at z = 0, which maps to
        # s = -2/ts; the continuous model is (2s**2 - 80s + 2400)/(s + 20)**2
        g = DiscreteTransferFunction([1.0, 2.0, 3.0], [1.0], 0.1)
        gc = bilinear_d2c(g)
        np.testing.assert_allclose(gc.den, [1.0, 40.0, 400.0], rtol=1e-13)
        np.testing.assert_allclose(gc.num, [2.0, -80.0, 2400.0], rtol=1e-13)
        np.testing.assert_allclose(np.roots(gc.den), [-20.0, -20.0],
                                   rtol=1e-6)

    def test_stability_agrees_with_continuous_poles(self):
        # the bilinear map sends the open unit disc onto the open left
        # half-plane, so for models of every numerator and denominator
        # length the discrete stability flag says whether every pole of the
        # continuous image has Re < 0; margins within 1e-6 of the unit
        # circle are left out as roundoff-dominated
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(400):
            k = rng.integers(1, 6)
            poles = rng.uniform(0.1, 1.3, k) * rng.choice([-1.0, 1.0], k)
            num = rng.normal(size=rng.integers(1, 9))
            g = DiscreteTransferFunction(num, np.poly(poles), 0.1)
            stable, margin = is_stable_discrete(g)
            if abs(margin) < 1e-6:
                continue
            continuous_stable = bool(np.all(np.roots(bilinear_d2c(g).den).real
                                            < 0.0))
            assert stable == continuous_stable, (num, poles)
            checked += 1
        assert checked >= 390

    @pytest.mark.parametrize("deg", [103, 120], ids=["subnormal", "zero"])
    def test_scale_below_normal_range_raises(self, deg):
        # (ts/2)**deg = 2**(-10*deg) is subnormal or zero: the continuous
        # coefficients cannot be represented
        z = np.r_[1.0, np.zeros(deg)]
        g = DiscreteTransferFunction(z, z, 2.0 / 1024)
        with pytest.raises(EvaluationError, match="not a normal double"):
            bilinear_d2c(g)

    def test_order_beyond_binomial_range_raises(self, monkeypatch):
        # comb(1030, 515) is beyond the double range: rejected before the
        # basis is built, whose entries could not be rounded to floats
        z = np.r_[1.0, np.zeros(1030)]
        g = DiscreteTransferFunction(z, z, 2.0)
        with pytest.raises(EvaluationError, match="order 1030 is above 1029"):
            bilinear_d2c(g)

        # order 1029 passes the check and reaches the basis
        class Built(Exception):
            pass

        def basis(deg):
            raise Built(deg)

        monkeypatch.setattr(irid.sysid, "_bilinear_basis", basis)
        with pytest.raises(Built, match="1029"):
            bilinear_d2c(DiscreteTransferFunction(z[:-1], z[:-1], 2.0))

    def test_basis_is_exact(self):
        # row k holds the ascending coefficients of (1 + x)**k *
        # (1 - x)**(deg - k), each the exact integer rounded once, also
        # from deg = 68 on, where some comb(k, j) pass int64
        for deg in [*range(1, 81), 200]:
            want = []
            for k in range(deg + 1):
                row = [0] * (deg + 1)
                minus = [(-1) ** j * math.comb(deg - k, j)
                         for j in range(deg - k + 1)]
                for i in range(k + 1):
                    plus = math.comb(k, i)
                    for j, c in enumerate(minus):
                        row[i + j] += plus * c
                want.append([float(c) for c in row])
            np.testing.assert_array_equal(irid.sysid._bilinear_basis(deg),
                                          want, err_msg=f"deg {deg}")

    @pytest.mark.parametrize("num,den,ts,where", [
        # 2e308 in the matmul
        ([1e308, 1e308], [1.0, 0.9], 1.0, "numerator coefficient 1"),
        # 4e310 once made monic
        ([1e300, 1e300], [1.0, 0.9], 1e-9, "numerator coefficient 1"),
        # 1.9/(0.1*ts/2) = 8.4e308, the numerator's quotients 20 and 0
        ([1.0, -1.0], [1.0, 0.9], 4.5e-308, "denominator coefficient 1"),
        # sum(|den|) in the z = -1 test
        ([1.0], [1.0, 1e308, 1e308], 1.0, None),
    ], ids=["coefficient", "quotient", "denominator", "root-test"])
    def test_out_of_range_coefficients_raise(self, num, den, ts, where):
        # a computed overflow is a breakdown, not invalid input, and warns
        # nothing (warnings are errors in this suite).  The message names
        # the first non-finite coefficient of the numerator or the
        # denominator, counted from the highest power of s
        match = where and (rf"^continuous model coefficients are out of "
                           rf"the double range \({where}\)$")
        with pytest.raises(EvaluationError, match=match):
            bilinear_d2c(DiscreteTransferFunction(num, den, ts))

    def test_pole_at_minus_one_rejected(self):
        g = DiscreteTransferFunction([1.0], [1.0, 1.0], 0.5)
        with pytest.raises(EvaluationError, match="root at z = -1"):
            bilinear_d2c(g)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_root_at_minus_one_rejected_at_every_order(self, order):
        # den = (z + 1) * prod(z - r_i), the r_i conjugate pairs and, at
        # even order, one real root, all inside |z| < 0.5; with z + 1
        # moved to z + 1 - 1e-6 the model converts, its pole near
        # (2/ts) * (z - 1)/(z + 1) = -4e7
        rng = np.random.default_rng(order)
        pairs = 0.5 * rng.uniform(0.0, 1.0, (order - 1) // 2) * np.exp(
            1j * rng.uniform(0.0, np.pi, (order - 1) // 2))
        rest = np.r_[pairs, pairs.conj(),
                     rng.uniform(-0.5, 0.5, (order - 1) % 2)]
        num = rng.standard_normal(order + 1)
        den = np.real(np.poly(np.r_[-1.0, rest]))
        with pytest.raises(EvaluationError, match="root at z = -1"):
            bilinear_d2c(DiscreteTransferFunction(num, den, 0.1))
        den = np.real(np.poly(np.r_[-1.0 + 1e-6, rest]))
        gc = bilinear_d2c(DiscreteTransferFunction(num, den, 0.1))
        assert len(gc.den) == order + 1
        poles = np.roots(gc.den)
        far = poles[np.argmax(np.abs(poles))]
        assert far == pytest.approx(20.0 * (-2.0 + 1e-6) / 1e-6, rel=1e-6)

    def test_defining_identity_for_fitted_model(self):
        h = impulse_of([0.5, 0.2], [1.0, -1.1, 0.3], 150, ts=0.05)
        gd = stmcb_fit(h, 1, 2)
        gc = bilinear_d2c(gd)
        rng = np.random.default_rng(11)
        mags = (2.0 / gd.ts) * 10.0 ** rng.uniform(-1.5, 0.5, 50)
        angs = rng.uniform(-0.47 * np.pi, 0.47 * np.pi, 50)
        for s in mags * np.exp(1j * angs):
            z = (1 + s * gd.ts / 2) / (1 - s * gd.ts / 2)
            want = np.polyval(gd.num, z) / np.polyval(gd.den, z)
            got = np.polyval(gc.num, s) / np.polyval(gc.den, s)
            assert abs(got - want) <= 1e-9 * abs(want)
