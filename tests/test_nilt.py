import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from irid.cfoi import CfoiParams, cfoi_analytic_impulse, cfoi_transfer
from irid.errors import EvaluationError, ParamError
from irid.nilt import _qd_coeffs, _qd_eval, _twice_real_sum, nilt


def rel_l2(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestConfig:
    def test_defaults(self):
        # fixed contour: Re(s) = -ln(1e-8)/T, spacing 2*pi/T, 2m line
        # points, then one extended-precision call: 17 tail points that
        # continue the line, and the line points N-2 and m-1 the
        # initial-value split reads
        seen = []

        def f(s):
            seen.append(s)
            return 1 / (s + 1)

        nilt(f, 10.0, 128)
        line, ext = seen
        T = 20.0
        assert line.shape == (256,) and ext.shape == (19,)
        assert ext.dtype == np.clongdouble
        assert np.all(line.real == -math.log(1e-8) / T)
        assert np.all(ext.real == -math.log(1e-8) / T)
        steps = np.diff(np.concatenate((line.imag, ext[:17].imag)))
        np.testing.assert_allclose(steps, 2 * math.pi / T, rtol=1e-12)
        np.testing.assert_allclose(ext[17:].imag, line[[254, 127]].imag,
                                   rtol=1e-15)

    @pytest.mark.parametrize("kw,match", [
        (dict(tm=0.0, m=1024), "tm must be positive"),
        (dict(tm=10.0, m=1000), "power of two"),
        (dict(tm=10.0, m=32), ">= 64"),
        (dict(tm=10.0, m=256.7), "m must be an integer"),
        (dict(tm=10.0, m="256"), "m must be an integer"),
        (dict(tm="10", m=256), "tm must be positive"),
        (dict(tm=10.0, m=2**21), "power of two from 64 to 1048576"),
        (dict(tm=10.0, m=2**200), "power of two from 64 to 1048576"),
        # the Bromwich line leaves the double range: 1/tm, m/tm or 2*tm
        # overflows
        (dict(tm=1e-321, m=64), "beyond the double range"),
        (dict(tm=1e-305, m=1024), "beyond the double range"),
        (dict(tm=1e308, m=64), "beyond the double range"),
    ], ids=[f"kw{i}" for i in range(11)])
    def test_invalid(self, kw, match):
        def no_call(s):
            raise AssertionError("the transform was evaluated")

        with pytest.raises(ParamError, match=match):
            nilt(no_call, **kw)


class TestLineSum:
    @pytest.mark.parametrize("m", [64, 1024, 16384])
    @pytest.mark.parametrize("f", [
        lambda s: 1 / (s + 1),
        lambda s: 1 / s ** 2,
        lambda s: cfoi_transfer(CfoiParams(1.5, -0.4, 1.0), s),
    ], ids=["1/(s+1)", "1/s^2", "cfoi"])
    def test_fold_matches_complex_ifft(self, f, m):
        # the real inverse FFT of the Hermitian fold against the complex
        # inverse FFT of the whole line, on nilt's line for tm = 2
        T, N = 4.0, 2 * m
        s = -math.log(1e-8) / T + 2j * math.pi / T * np.arange(N)
        F = f(s)
        want = 2.0 * np.fft.ifft(F, norm="forward")[1:m + 1].real
        got = _twice_real_sum(F, m)
        eps = np.finfo(float).eps
        assert np.max(np.abs(got - want)) <= 4 * eps * np.max(np.abs(want))


class TestNothingKept:
    @pytest.mark.parametrize("m", [64, 2 ** 10, 2 ** 14, 2 ** 15, 2 ** 17])
    def test_nothing_left_behind(self, m):
        # at every m, not only above 2**14: the warm-up call at tm = 2,
        # m = 64 makes the first-call allocations, and a call at another
        # tm leaves none of its arrays behind
        def f(s):
            return 1 / (s + 1)

        nilt(f, 2.0, 64)
        tracemalloc.start()
        try:
            nilt(f, 3.0, m)
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert left < 4096

    @pytest.mark.parametrize("m", [64, 2 ** 15])
    def test_writing_into_the_line_raises(self, m):
        def writes(s):
            s *= 2.0
            return 1 / s

        with pytest.raises(ValueError, match="read-only"):
            nilt(writes, 2.0, m)


class TestOraclePairs:
    def test_exponential(self):
        ts = nilt(lambda s: 1 / (s + 1), 10.0, 1024)
        assert ts.t0 == ts.dt == pytest.approx(10.0 / 1024)
        assert len(ts) == 1024
        mask = ts.times <= 8.0
        assert rel_l2(ts.values[mask], np.exp(-ts.times[mask])) <= 1e-3

    def test_unit_step_max_abs(self):
        ts = nilt(lambda s: 1 / s, 5.0, 512)
        assert np.max(np.abs(ts.values - 1.0)) <= 1e-3

    def test_ramp(self):
        ts = nilt(lambda s: 1 / s ** 2, 5.0, 512)
        assert rel_l2(ts.values, ts.times) <= 1e-3

    def test_sine(self):
        ts = nilt(lambda s: 1 / (s * s + 1), 10.0, 1024)
        mask = ts.times <= 8.0
        assert rel_l2(ts.values[mask], np.sin(ts.times[mask])) <= 1e-3

    def test_complex_order_integrator_vs_analytic(self):
        from irid.cfoi import CfoiParams, cfoi_analytic_impulse, cfoi_transfer
        p = CfoiParams(1.5, -0.4, 1.0)
        ts = nilt(lambda s: cfoi_transfer(p, s), 2.0, 1024)
        want = cfoi_analytic_impulse(p, ts.times)
        mask = ts.times <= 1.6
        assert rel_l2(ts.values[mask], want[mask]) <= 0.01


class TestAcceleratedMode:
    def test_branch_point_transform(self):
        # (1/s)**0.5 has an algebraic branch point, which the FFT sum
        # alone cannot resolve; the qd tail can
        from irid.cfoi import CfoiParams, cfoi_analytic_impulse, cfoi_transfer
        p = CfoiParams(0.5, 0.0, 1.0)
        ts = nilt(lambda s: cfoi_transfer(p, s), 2.0, 1024)
        want = cfoi_analytic_impulse(p, ts.times)
        mask = ts.times <= 1.6
        assert rel_l2(ts.values[mask], want[mask]) <= 1e-3

    def test_smooth_transform_improves(self):
        ts = nilt(lambda s: 1 / (s + 1), 10.0, 1024)
        mask = ts.times <= 8.0
        assert rel_l2(ts.values[mask], np.exp(-ts.times[mask])) <= 1e-6

    def test_constant_transform_stays_finite(self):
        ts = nilt(lambda s: 1.0 + 0j, 2.0, 64)
        assert np.all(np.isfinite(ts.values))

    def test_transform_output_is_not_written(self):
        # a transform may hand back an array it keeps: nilt builds the
        # split, the ifft input and the reconstruction in its own buffers
        kept, copies = {}, {}

        def shared(s):
            if s.dtype not in kept:
                kept[s.dtype] = 1.0 / (s + 1.0)
                copies[s.dtype] = kept[s.dtype].copy()
            return kept[s.dtype]

        first = nilt(shared, 2.0, 64)
        second = nilt(shared, 2.0, 64)
        assert len(kept) == 2
        for dtype, arr in kept.items():
            assert np.array_equal(arr, copies[dtype]), dtype
        assert np.array_equal(first.values, second.values)

    def test_zero_transform_gives_exact_zeros(self):
        # an all-zero tail series leaves a one-term continued fraction [0]
        ts = nilt(lambda s: 0 * s, 1.0, 64)
        assert np.all(ts.values == 0.0)


    @pytest.mark.parametrize("mu", [-0.4, -0.2])
    @pytest.mark.parametrize("m", [256, 1024])
    def test_tail_insensitive_to_input_rounding(self, mu, m):
        # the continued fraction amplifies rounding in F; perturbing F by
        # 2 ulp of its own dtype must barely move the error to the oracle
        from irid.cfoi import CfoiParams, cfoi_analytic_impulse, cfoi_transfer
        p = CfoiParams(1.5, mu, 1.0)
        gaps = []
        for seed in range(10):
            rng = np.random.default_rng(seed)

            def perturbed(s):
                F = cfoi_transfer(p, s)
                eps = np.finfo(F.dtype).eps
                return F * (1 + 2 * eps * rng.uniform(-1.0, 1.0, F.shape))

            ts = nilt(perturbed, 2.0, m)
            mask = ts.times <= 1.6
            want = cfoi_analytic_impulse(p, ts.times[mask])
            gaps.append(rel_l2(ts.values[mask], want))
        assert (max(gaps) - min(gaps)) / np.median(gaps) <= 0.15


class TestProperties:
    def test_two_sided_reconstruction_is_real(self):
        # with a conjugate-symmetric transform the symmetric spectral sum
        # must be real up to roundoff; checks the identity the one-sided
        # 2*Re() formula relies on
        tm, m = 10.0, 256
        T, N = 2 * tm, 2 * 256
        c = -math.log(1e-8) / T
        dw = 2 * math.pi / T
        f = lambda s: 1 / (s + 1)
        n = np.arange(-(N - 1), N)
        F = np.array([f(c + 1j * dw * k) for k in n])
        k_t = np.arange(1, m + 1)
        two_sided = np.array(
            [np.sum(F * np.exp(2j * np.pi * n * k / N)) for k in k_t])
        peak = np.max(np.abs(two_sided))
        assert np.max(np.abs(two_sided.imag)) <= 1e-9 * peak

    def test_convergence_with_doubling(self):
        errs = []
        for m in (128, 256, 512, 1024):
            ts = nilt(lambda s: 1 / (s + 1), 10.0, m)
            mask = ts.times <= 8.0
            errs.append(rel_l2(ts.values[mask], np.exp(-ts.times[mask])))
        floor = 1e-8
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse / 2 or fine <= floor

    def test_deterministic(self):
        a = nilt(lambda s: 1 / (s + 2), 3.0, 128).values
        b = nilt(lambda s: 1 / (s + 2), 3.0, 128).values
        assert np.array_equal(a, b)

    def test_output_excludes_t_zero(self):
        ts = nilt(lambda s: 1 / (s + 1), 1.0, 64)
        assert ts.times[0] == pytest.approx(1.0 / 64)
        assert ts.times[-1] == pytest.approx(1.0)


class TestErrors:
    def test_non_finite_transform(self):
        def bad(s):
            return math.nan
        with pytest.raises(EvaluationError):
            nilt(bad, 1.0, 64)

    def test_non_finite_at_single_point(self):
        def spiky(s):
            out = 1 / (s + 1)
            out[9] = math.inf
            return out

        with pytest.raises(EvaluationError, match=r"\(sample 9\)"):
            nilt(spiky, 1.0, 64)

    @pytest.mark.parametrize("f,match", [
        (lambda s: np.ones(3), r"shape \(3,\) for 128 points on the line"),
        (lambda s: np.ones(128),
         r"shape \(128,\) for 19 points at the extended points"),
        (lambda s: None, "must return numbers, got dtype object on the line"),
        (lambda s: np.full(s.shape, "a"),
         "must return numbers, got dtype <U1 on the line"),
    ], ids=["short", "line-length", "none", "strings"])
    def test_transform_result_not_numbers_of_the_shape(self, f, match):
        with pytest.raises(ParamError, match=match):
            nilt(f, 1.0, 64)

    @pytest.mark.parametrize("lam,mu", itertools.product(
        (0.1, 0.5, 1.5, 1.95), (0.0, -0.5, -0.95)))
    def test_qd_eval_matches_nested_divisions(self, lam, mu):
        # _qd_eval carries each level as a ratio and divides once; the
        # fraction evaluated level by level, one division each, is the
        # reference. On these tails (m = 256, tm = 2) the two differ by at
        # most 1.5e-14 of the peak
        m, tm = 256, 2.0
        T, N = 2.0 * tm, 2 * m
        s_tail = -math.log(1e-8) / T + 2j * math.pi / T * np.arange(
            N, N + 17).astype(np.longdouble)
        cf = _qd_coeffs(cfoi_transfer(CfoiParams(lam, mu, 1.0), s_tail))
        z = np.exp(2j * np.pi * np.arange(1, m + 1) / N)
        want = np.zeros_like(z)
        for c in cf[:0:-1]:
            want = c * z / (1.0 + want)
        want = cf[0] / (1.0 + want)
        got = _qd_eval(cf, z)
        assert len(cf) == 17
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_qd_tail_pole_at_sample_point(self):
        # 1/(1 - z) has its pole at z = 1: no tail estimate stands in for it
        with np.errstate(all="ignore"), pytest.raises(EvaluationError,
                                                      match="qd tail"):
            _qd_eval(np.array([1.0, -1.0], dtype=complex),
                     np.array([1.0 + 0j]))

    def test_qd_tail_beyond_the_double_range(self):
        # F = (s/s0)**3000 * 1e305, s0 the modulus of the last line point,
        # peaks at 1e305 on the line; the first tail value, about 1.6e315 in
        # long double, has no double, so no fraction can stand for the tail.
        # Where long double is a double the transform already overflows
        # there
        tm, m = 1.0, 64
        s0 = abs(complex(-math.log(1e-8) / (2.0 * tm), 127 * math.pi))

        def steep(s):
            return (s / s0) ** 3000 * 1e305

        with pytest.raises(EvaluationError, match="qd tail"):
            nilt(steep, tm, m)


LATTICE = list(itertools.product(
    (0.1, 0.5, 1.0, 1.5, 1.95), (0.0, -0.5, -0.95), (0.1, 1.0, 10.0),
    (0.5, 2.0, 20.0)))


class DoubleLongdouble:
    # numpy as seen by nilt where np.longdouble is float64 (Windows, macOS
    # arm64): its extended-precision call gets complex128 points
    longdouble = np.float64

    def __getattr__(self, name):
        return getattr(np, name)


def round_tail_to_double(monkeypatch):
    # the package attribute irid.nilt is the function, not the module
    module = sys.modules["irid.nilt"]
    monkeypatch.setattr(module, "np", DoubleLongdouble())


class TestCfoiOracle:
    def test_m256_lattice_bound(self):
        # the 135 integrators of the benchmark's domain_sweep lattice at
        # m = 256 against the closed-form impulse response on [dt, 0.8*tm].
        # The worst gap, 2.0e-5 at lambda = 0.1, mu = -0.95, sits in the
        # first samples next to the t**(lambda - 1) singularity
        gaps = []
        for lam, mu, wgc, tm in LATTICE:
            p = CfoiParams(lam, mu, wgc)
            ts = nilt(lambda s: cfoi_transfer(p, s), tm, 256)
            n = int(0.8 * 256)
            want = cfoi_analytic_impulse(p, ts.times[:n])
            gaps.append(rel_l2(ts.values[:n], want))
        assert len(gaps) == 135
        assert max(gaps) <= 2.5e-5


class TestDoubleTailOracle:
    def test_m256_lattice_bound(self, monkeypatch):
        # TestCfoiOracle's lattice with the qd tail rounded to double, as
        # on platforms whose np.longdouble is float64 (Windows, macOS
        # arm64): max 1.76e-4, median 1.8e-7 and 30 of 135 integrators over
        # 2.5e-5, where the extended tail gives 2.0e-5 and none over
        round_tail_to_double(monkeypatch)
        dtypes = set()
        gaps = []
        for lam, mu, wgc, tm in LATTICE:
            p = CfoiParams(lam, mu, wgc)

            def f(s):
                dtypes.add(s.dtype)
                return cfoi_transfer(p, s)

            ts = nilt(f, tm, 256)
            n = int(0.8 * 256)
            want = cfoi_analytic_impulse(p, ts.times[:n])
            gaps.append(rel_l2(ts.values[:n], want))
        assert dtypes == {np.dtype(np.complex128)}
        assert len(gaps) == 135
        assert max(gaps) <= 2.0e-4


class TestLineRounding:
    @pytest.mark.parametrize("tail", ["extended", "double"])
    def test_reaches_the_reference_only_linearly(self, tail, monkeypatch):
        # the complex128 line enters the reference only through the FFT,
        # so 2-ulp changes to the two line samples the initial-value split
        # stands on, N-2 and m-1, move h by about their own size (4.7e-12
        # of its peak over this lattice in both tails). A split fitted
        # from them instead passes them on to the qd tail through r:
        # 4.7e-6 with the extended tail, 8.1e-4 with the double one
        if tail == "double":
            round_tail_to_double(monkeypatch)
        m = 256
        N = 2 * m
        worst = 0.0
        for lam, mu, wgc, tm in LATTICE:
            p = CfoiParams(lam, mu, wgc)

            def f(s, ka=0, kb=0):
                F = cfoi_transfer(p, s)
                if s.shape == (N,):
                    F[N - 2] *= 1 + ka * 2.0 ** -51
                    F[m - 1] *= 1 + kb * 2.0 ** -51
                return F

            h = nilt(f, tm, m).values
            for ka, kb in itertools.product((-1, 1), repeat=2):
                moved = nilt(lambda s: f(s, ka, kb), tm, m).values
                worst = max(worst, np.abs(moved - h).max() / np.abs(h).max())
        assert worst <= 1e-10
