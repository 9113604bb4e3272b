import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import irid.lti
import irid.pipeline
import irid.sysid
from irid.cfoi import CfoiParams, cfoi_transfer, gamma_complex
from irid.errors import EvaluationError, ParamError, PipelineStageError
from irid.lti import (DiscreteTransferFunction, FrequencyGrid,
                      FrequencyResponseSeries, TimeSeries, discrete_impulse,
                      is_stable_discrete)
from irid.pipeline import (IridRequest, _band_limit, _kept_exact,
                           _kept_reference, _models, _reference,
                           compare_frequency, compare_impulse, irid_fcoi,
                           write_outputs)
from irid.sysid import stmcb_fit

SRC = Path(__file__).resolve().parent.parent / "src"
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count())


def clear_memos():
    """Empty both memos, so that the next request does all its work."""
    _kept_reference.cache_clear()
    _kept_exact.cache_clear()


@pytest.fixture(scope="module")
def small_result():
    req = IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                      wmin=0.01, wmax=40.0, norder=5, m=256, npoints=60)
    return irid_fcoi(req)


class TestCompareImpulse:
    def test_identical(self):
        a = TimeSeries(0.0, 1.0, [1.0, 2.0, 3.0])
        assert compare_impulse(a, a) == (0.0, 0.0)

    def test_double(self):
        a = TimeSeries(0.0, 1.0, [1.0, 2.0, 3.0])
        b = TimeSeries(0.0, 1.0, [2.0, 4.0, 6.0])
        rel, _ = compare_impulse(a, b)
        assert rel == pytest.approx(1.0)

    def test_orthogonal(self):
        a = TimeSeries(0.0, 1.0, [1.0, 0.0])
        b = TimeSeries(0.0, 1.0, [0.0, 1.0])
        rel, mabs = compare_impulse(a, b)
        assert rel == pytest.approx(math.sqrt(2))
        assert mabs == pytest.approx(1.0)

    def test_huge_samples_do_not_overflow_the_norm(self):
        # squaring 1e200 overflows; the scaled norms stay exact
        a = TimeSeries(0.0, 1.0, 1e200 * np.linspace(-1.0, 3.0, 50))
        b = TimeSeries(0.0, 1.0, 2.0 * a.values)
        rel, mabs = compare_impulse(a, b)
        assert rel == 1.0
        assert mabs == 3e200

    @pytest.mark.parametrize("size", [1e-162, 1e-300, 5e-323])
    def test_tiny_samples_do_not_underflow_the_norm(self, size):
        # squaring 1e-162 underflows to zero, down to the subnormals; the
        # norms are scaled up by a power of two, which stays exact
        a = TimeSeries(0.0, 1.0, size * np.array([1.0, -3.0, 2.0]))
        b = TimeSeries(0.0, 1.0, a.values * [1.0, 1.0, 0.0])
        rel, mabs = compare_impulse(a, b)
        assert rel == pytest.approx(2.0 / math.sqrt(14.0), rel=1e-15)
        assert mabs == a.values[2]

    def test_samples_near_the_double_range(self):
        # a - b overflows unless both are scaled first; the deviation is
        # +inf only where it exceeds the double range
        a = TimeSeries(0.0, 1.0, [1e308, 0.0])
        b = TimeSeries(0.0, 1.0, [-1e308, 0.0])
        assert compare_impulse(a, b) == (2.0, math.inf)
        c = TimeSeries(0.0, 1.0, [-1e307, 0.0])
        rel, mabs = compare_impulse(a, c)
        assert rel == pytest.approx(1.1, rel=1e-15)
        assert mabs == 1e308 + 1e307

    def test_zero_reference(self):
        # a nonzero series against a zero reference is infinitely far off
        # in relative terms; a zero series against it is not off at all
        zero = TimeSeries(0.0, 1.0, [0.0, 0.0, 0.0])
        tiny = TimeSeries(0.0, 1.0, [0.0, 1e-300, 0.0])
        assert compare_impulse(zero, tiny) == (math.inf, 1e-300)
        assert compare_impulse(zero, zero) == (0.0, 0.0)

    def test_grid_mismatch(self):
        a = TimeSeries(0.0, 1.0, [1.0, 2.0])
        b = TimeSeries(0.0, 0.5, [1.0, 2.0])
        with pytest.raises(ParamError, match="time series grids differ"):
            compare_impulse(a, b)

    @pytest.mark.skipif(CPUS < 2, reason="BLAS runs one thread on one CPU")
    def test_bits_do_not_depend_on_blas_threads(self):
        # BLAS splits the dot product of a long vector across its threads,
        # so its bits depend on their number; the impulse metrics and the
        # fit's choice of iterate sum their squares without it
        code = ("import math, numpy as np\n"
                "from irid.lti import TimeSeries\n"
                "from irid.pipeline import compare_impulse\n"
                "from irid.sysid import _keep\n"
                "rng = np.random.default_rng(5)\n"
                "a = rng.standard_normal(65536)\n"
                "b = a + 1e-3 * rng.standard_normal(65536)\n"
                "print(*compare_impulse(TimeSeries(0.0, 1.0, a), "
                "TimeSeries(0.0, 1.0, b)))\n"
                "print(_keep((math.inf,), b.copy(), a, None, None)[0])\n")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC),
                       OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestCompareFrequency:
    def grid(self):
        return FrequencyGrid([1.0, 2.0, 4.0])

    def test_identical(self):
        a = FrequencyResponseSeries(self.grid(), [1 + 1j, 2j, -3.0])
        assert compare_frequency(a, a) == (0.0, 0.0)

    def test_gain_factor(self):
        a = FrequencyResponseSeries(self.grid(), [1 + 1j, 2j, -3.0])
        b = FrequencyResponseSeries(self.grid(), 10 * a.response)
        mag, phase = compare_frequency(a, b)
        assert mag == pytest.approx(20.0)
        assert phase == pytest.approx(0.0, abs=1e-12)

    def test_rotation(self):
        a = FrequencyResponseSeries(self.grid(), [1 + 1j, 2j, -3.0 + 0.5j])
        b = FrequencyResponseSeries(self.grid(), 1j * a.response)
        mag, phase = compare_frequency(a, b)
        assert mag == pytest.approx(0.0, abs=1e-12)
        assert phase == pytest.approx(90.0)

    def test_grid_mismatch(self):
        a = FrequencyResponseSeries(self.grid(), [1.0, 1.0, 1.0])
        other = FrequencyResponseSeries(FrequencyGrid([1.0, 2.0, 5.0]),
                                        [1.0, 1.0, 1.0])
        with pytest.raises(ParamError, match="frequency grids differ"):
            compare_frequency(a, other)

    def test_zero_magnitude(self):
        a = FrequencyResponseSeries(self.grid(), [1.0, 0.0, 1.0])
        with pytest.raises(EvaluationError, match="underflows the dB scale"):
            compare_frequency(a, a)

    def test_equals_its_definition(self):
        # the scores' definition written out, as the reference, on random
        # responses whose phase gaps wrap both ways
        rng = np.random.default_rng(46)
        grid = FrequencyGrid(np.arange(1.0, 301.0))
        a, b = (FrequencyResponseSeries(grid, np.exp(
                    rng.uniform(-30, 30, 300) + 1j * rng.uniform(-4, 4, 300)))
                for _ in range(2))
        db = [20.0 * np.log10(np.abs(f.response)) for f in (a, b)]
        turn = np.angle(b.response) - np.angle(a.response) + math.pi
        want = (float(np.abs(db[0] - db[1]).max()),
                float(np.degrees(np.abs(turn % (2 * math.pi)
                                        - math.pi).max())))
        assert compare_frequency(a, b) == want
        assert a.magnitude_db().tobytes() == db[0].tobytes()

    # the showcase and lattice requests, m = 256 to 4096, norder 2 to 8,
    # stable and unstable fits
    @pytest.mark.parametrize("lam,mu,wgc,tm,m,norder", [
        (1.5, -0.4, 1.0, 2.0, 256, 5),
        (1.5, -0.2, 1.0, 2.0, 1024, 5),
        (0.1, 0.0, 0.1, 0.5, 256, 2),
        (1.95, -0.95, 10.0, 20.0, 256, 8),
        (0.5, -0.5, 1.0, 2.0, 4096, 8),
        (1.0, -0.95, 0.1, 20.0, 4096, 5),
    ])
    def test_pipeline_scores_are_compare_frequency(self, lam, mu, wgc, tm,
                                                   m, norder):
        req = IridRequest(CfoiParams(lam, mu, wgc), tm, 0.01,
                          _band_limit(tm, m), norder, m)
        res = irid_fcoi(req)
        for e, f in ((res.metrics.discrete, res.f_d),
                     (res.metrics.continuous, res.f_c)):
            assert ((e.mag_max_err_db, e.phase_max_err_deg)
                    == compare_frequency(res.f_ref, f))

    def test_phase_gap_taken_per_point(self):
        # 179 and -179 degrees sit 2 degrees apart across the branch cut
        grid = FrequencyGrid([1.0])
        a = FrequencyResponseSeries(grid, [np.exp(1j * np.radians(179.0))])
        b = FrequencyResponseSeries(grid, [np.exp(-1j * np.radians(179.0))])
        assert compare_frequency(a, b)[1] == pytest.approx(2.0)


class TestRequestValidation:
    def test_out_of_range_order_rejected_before_compute(self):
        with pytest.raises(ParamError, match=r"\(0, 2\)"):
            IridRequest(params=CfoiParams(2.5, -0.4, 1.0), tm=2.0,
                        wmin=0.01, wmax=100.0, norder=5)

    def test_band_ordering(self):
        with pytest.raises(ParamError):
            IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                        wmin=10.0, wmax=1.0, norder=5)

    def test_norder_positive(self):
        with pytest.raises(ParamError):
            IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                        wmin=0.01, wmax=100.0, norder=0)

    @pytest.mark.parametrize("kw,match", [
        (dict(m=1000), "power of two"),
        (dict(m=32), ">= 64"),
        (dict(tm=20.0, wmin=10.0, m=64), "below 0.9x the Nyquist rate"),
        (dict(wmin=1.0, wmax=1.0 + 1e-14, m=256),
         r"band \[1\.0, 1\.00000000000001\] is too narrow for 200 "),
        (dict(norder=5.7), "norder must be an integer"),
        (dict(m=1024.5), "m must be an integer"),
        (dict(m="1024"), "m must be an integer"),
        (dict(npoints=200.9), "npoints must be an integer"),
        (dict(tm="2"), "tm must be positive"),
        (dict(wmin="0.01"), "wmin must be positive"),
        (dict(wmax="100"), "need 0 < wmin < wmax"),
        (dict(norder=True), "norder must be an integer"),
        (dict(params=None), "params must be a CfoiParams"),
        (dict(params=True), "params must be a CfoiParams"),
        (dict(params="abc"), "params must be a CfoiParams"),
        (dict(m=2**21), "power of two from 64 to 1048576"),
        (dict(m=2**200), "power of two from 64 to 1048576"),
        (dict(npoints=2**21), "npoints must be <= 1048576"),
        (dict(npoints=2**40), "npoints must be <= 1048576"),
        (dict(m=2**20, norder=9), "more than 18874368"),
        (dict(tm=1e-321), "beyond the double range"),
        (dict(tm=1e-305), "beyond the double range"),
        (dict(tm=1e308, wmin=1e-320), "beyond the double range"),
    ], ids=["samples", "samples32", "wmin-nyquist", "narrow-band",
            "norder-fraction", "samples-fraction", "samples-str",
            "points-fraction", "tm-str", "wmin-str", "wmax-str",
            "norder-bool", "params-none", "params-bool", "params-str",
            "samples2**21", "samples2**200", "points2**21", "points2**40",
            "fit-matrix-cap", "tm1e-321", "tm1e-305", "tm1e308"])
    def test_config_rejected_before_any_stage(self, kw, match):
        # the request itself raises, so no stage can be reached
        fields = dict(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                      wmin=0.01, wmax=100.0, norder=5)
        with pytest.raises(ParamError, match=match):
            IridRequest(**{**fields, **kw})

    @pytest.mark.parametrize("make,match", [
        (lambda: CfoiParams(1.5, -0.4, 10**400), "wgc must be positive"),
        (lambda: IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                             wmin=0.01, wmax=10**400, norder=5),
         "need 0 < wmin < wmax"),
        (lambda: IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                             wmin=0.01, wmax=100.0, norder=5, m=2**1100),
         "m must be an integer"),
        (lambda: gamma_complex(10**400), "must be a finite number"),
    ], ids=["wgc", "wmax", "m", "gamma"])
    def test_int_beyond_the_double_range_rejected(self, make, match):
        # float() of such an int raises OverflowError, not a ParamError
        with pytest.raises(ParamError, match=match):
            make()

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    @pytest.mark.parametrize("make,want", [
        (lambda x: CfoiParams(x(1.5), -0.4, 1.0).lam, lambda x: 1.5),
        (lambda x: IridRequest(params=CfoiParams(1.5, -0.4, 1.0),
                               tm=x(2.0), wmin=0.01, wmax=100.0,
                               norder=5).tm, lambda x: 2.0),
        (lambda x: TimeSeries(0.0, x(0.1), [1.0]).dt,
         lambda x: float(x(0.1))),
        (lambda x: gamma_complex(x(0.5)), lambda x: gamma_complex(0.5)),
    ], ids=["params", "request", "series", "gamma"])
    def test_half_and_single_scalars_accepted(self, make, want, dtype):
        # the double range is not compared in the scalar's own dtype, where
        # it overflows with a RuntimeWarning
        assert make(dtype) == want(dtype)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_half_and_single_non_finite_rejected(self, dtype):
        with pytest.raises(ParamError, match="wgc must be positive"):
            CfoiParams(1.5, -0.4, dtype(math.inf))
        with pytest.raises(ParamError, match="must be a finite number"):
            gamma_complex(dtype(math.nan))

    def test_integral_counts_accepted(self):
        req = IridRequest(params=CfoiParams(1.5, -0.4, 1.0),
                          tm=np.float64(2.0), wmin=np.float64(0.01),
                          wmax=np.float64(100.0), norder=5.0,
                          m=np.int64(256), npoints=np.int32(60))
        assert (req.norder, req.m, req.npoints) == (5, 256, 60)
        assert all(type(v) is int for v in (req.norder, req.m, req.npoints))
        assert (req.tm, req.wmin, req.wmax) == (2.0, 0.01, 100.0)
        assert all(type(v) is float for v in (req.tm, req.wmin, req.wmax))


class TestIridFcoi:
    def test_series_share_grid(self, small_result):
        res = small_result
        for h in (res.h_d, res.h_c):
            assert h.t0 == res.h_ref.t0
            assert h.dt == res.h_ref.dt
            assert len(h) == len(res.h_ref)
        for f in (res.f_d, res.f_c):
            assert np.array_equal(f.grid.omegas, res.f_ref.grid.omegas)

    def test_peak_memory_per_request(self):
        # a warm m = 16384 request: the fit's band lives in its matrix and
        # the transform keeps four line-length real temporaries, so the
        # request peaks at ~2.3 MiB above what it starts with (3.26 MiB
        # with a band and two more temporaries of their own)
        req = IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                          wmin=0.01, wmax=100.0, norder=5, m=16384)
        irid_fcoi(req)
        # the measured request inverts again and computes the exact
        # response again instead of sharing the kept ones
        clear_memos()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            irid_fcoi(req)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2 ** 20

    @pytest.mark.parametrize("m", [64, 256, 2 ** 14, 2 ** 15])
    def test_reference_hands_cfoi_transfer_the_line_and_extended_points(
            self, m, monkeypatch):
        # one path for G: the 2m-point line, then the 19 extended points
        seen = []

        def counted(p, s):
            seen.append(np.size(s))
            return cfoi_transfer(p, s)

        monkeypatch.setattr(irid.pipeline, "cfoi_transfer", counted)
        _reference(CfoiParams(1.5, -0.4, 1.0), 2.0, m)
        assert seen == [2 * m, 19]

    def test_reference_memo_keeps_nothing_above_2_14(self):
        # the reference memo takes no reference above 2**14
        _kept_reference.cache_clear()
        irid_fcoi(IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                              wmin=0.01, wmax=100.0, norder=2, m=2 ** 15))
        assert _kept_reference.cache_info().currsize == 0

    # lattice points of the benchmark's domain_sweep, tm = 20 clamping
    # wmax = 100 at m = 64 and 256
    @pytest.mark.parametrize("m", [64, 256, 4096, 2 ** 14])
    @pytest.mark.parametrize("lam, mu, wgc, tm", [
        (1.5, -0.5, 1.0, 2.0), (0.1, -0.95, 10.0, 20.0),
        (1.95, 0.0, 0.1, 0.5)])
    def test_kept_reference_gives_the_bits_of_a_new_one(self, lam, mu, wgc,
                                                        tm, m):
        # the three orders of one integrator share one read-only reference
        # and one exact response, and give the bits of requests that each
        # compute both again
        reqs = [IridRequest(params=CfoiParams(lam, mu, wgc), tm=tm,
                            wmin=0.01, wmax=100.0, norder=norder, m=m)
                for norder in (2, 5, 8)]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "wmax=.*clamping", UserWarning)
            clear_memos()
            kept = [irid_fcoi(req) for req in reqs]
            new = []
            for req in reqs:
                clear_memos()
                new.append(irid_fcoi(req))
        h_ref, f_ref = kept[0].h_ref, kept[0].f_ref
        assert all(res.h_ref is h_ref for res in kept)
        assert all(res.f_ref is f_ref for res in kept)
        assert not h_ref.values.flags.writeable
        for a, b in zip(kept, new):
            assert self.outputs(a) == self.outputs(b), a.request

    def test_kept_reference_is_one_per_params_tm_and_m(self):
        # another integrator, window or sample count inverts again; the
        # order and the band do not, and mu = -0.0 is stored as +0.0
        def run(lam=1.5, mu=-0.4, wgc=1.0, tm=2.0, m=256, norder=5,
                wmax=100.0):
            return irid_fcoi(IridRequest(
                params=CfoiParams(lam, mu, wgc), tm=tm, wmin=0.01,
                wmax=wmax, norder=norder, m=m)).h_ref

        _kept_reference.cache_clear()
        h_ref = run()
        others = [run(lam=1.4), run(mu=-0.2), run(wgc=2.0), run(tm=1.0),
                  run(m=512)]
        assert len({id(h) for h in (h_ref, *others)}) == 6
        assert run(norder=2, wmax=50.0) is h_ref
        assert run(mu=-0.0) is run(mu=0.0)
        assert _kept_reference.cache_info().currsize == 7

    def test_kept_exact_response_is_one_per_params_and_band(self):
        # another integrator, wmin, clamped wmax or point count computes a
        # new exact response; the order does not, nor another m or tm
        # whose clamped band is the same, and mu = -0.0 is stored as +0.0
        def run(lam=1.5, mu=-0.4, tm=2.0, m=256, norder=5, wmin=0.01,
                wmax=100.0, npoints=200):
            return irid_fcoi(IridRequest(
                params=CfoiParams(lam, mu, 1.0), tm=tm, wmin=wmin,
                wmax=wmax, norder=norder, m=m, npoints=npoints)).f_ref

        clear_memos()
        f_ref = run()
        # tm = 20 at m = 256 clamps wmax = 100 to the band limit, 36.2
        with pytest.warns(UserWarning, match="clamping"):
            clamped = run(tm=20.0)
        others = [run(lam=1.4), run(wmin=0.02), run(wmax=50.0), clamped,
                  run(npoints=100)]
        assert len({id(f) for f in (f_ref, *others)}) == 6
        assert run(norder=2) is f_ref
        # band limits 724 and 5791 rad/s leave wmax = 100 unclamped
        assert run(m=512) is f_ref
        assert run(tm=0.5, m=1024, norder=8) is f_ref
        assert run(mu=-0.0) is run(mu=0.0)
        assert _kept_exact.cache_info().currsize == 7

    def test_kept_exact_response_is_read_only_and_capped(self):
        # scoring leaves the kept dB and angle as they were; 8 entries at
        # the cap of 2**11 points hold at most 1 MiB, and a longer grid is
        # not kept
        req = IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                          wmin=0.01, wmax=100.0, norder=5, m=256,
                          npoints=2 ** 11)
        clear_memos()
        f_ref = irid_fcoi(req).f_ref
        kept, ref = _kept_exact(req.params, 0.01, 100.0, 2 ** 11)
        assert kept is f_ref
        assert not any(a.flags.writeable
                       for a in (f_ref.grid.omegas, f_ref.response, *ref))
        before = [a.copy() for a in ref]
        irid_fcoi(IridRequest(params=req.params, tm=2.0, wmin=0.01,
                              wmax=100.0, norder=8, m=256, npoints=2 ** 11))
        assert all(np.array_equal(a, b) for a, b in zip(ref, before))
        size = sum(a.nbytes for a in (f_ref.grid.omegas, f_ref.response, *ref))
        assert 8 * size <= 2 ** 20
        clear_memos()
        irid_fcoi(IridRequest(params=req.params, tm=2.0, wmin=0.01,
                              wmax=100.0, norder=5, m=256,
                              npoints=2 ** 11 + 1))
        assert _kept_exact.cache_info().currsize == 0

    def test_underflowing_exact_response_is_not_kept(self, monkeypatch):
        # an exact response with a zero underflows the dB scale in stage
        # "compare" on every call, and nothing is kept
        def zero_at_one_point(params, grid):
            response = np.ones(len(grid), complex)
            response[3] = 0.0
            return FrequencyResponseSeries(grid, response)

        monkeypatch.setattr(irid.pipeline, "cfoi_freq_grid",
                            zero_at_one_point)
        req = IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                          wmin=0.01, wmax=100.0, norder=5, m=256)
        clear_memos()
        for _ in range(2):
            with pytest.raises(PipelineStageError) as err:
                irid_fcoi(req)
            assert err.value.stage == "compare"
            assert isinstance(err.value.cause, EvaluationError)
            assert str(err.value.cause) == ("response magnitude underflows "
                                            "the dB scale")
        assert _kept_exact.cache_info().currsize == 0

    def test_underflowing_reference_is_not_kept(self):
        # G underflows to zero on the whole line, so every call inverts
        # again and raises again
        req = IridRequest(params=CfoiParams(1.9, 0.0, 1e-300), tm=2.0,
                          wmin=0.01, wmax=100.0, norder=5, m=256)
        _kept_reference.cache_clear()
        for _ in range(2):
            with pytest.raises(PipelineStageError) as err:
                irid_fcoi(req)
            assert err.value.stage == "nilt"
            assert isinstance(err.value.cause, EvaluationError)
            assert str(err.value.cause) == ("the reference underflows to "
                                            "zero at every sample")
        assert _kept_reference.cache_info().currsize == 0

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="ru_maxrss is in KiB on Linux")
    def test_max_rss_at_the_top_of_the_domain(self):
        # m = 2**20 and norder 8 in a fresh process, the largest fit the
        # matrix cap admits: 229 MiB measured on Linux x86-64 (Python 3.11,
        # numpy 2.4, scipy 1.17); the bound leaves 71 MiB for other
        # interpreters and numpy/OpenBLAS builds, and a fit that allocated
        # its own filter band (346 MiB) fails it
        code = ("import resource\n"
                "from irid import CfoiParams, IridRequest, irid_fcoi\n"
                "irid_fcoi(IridRequest(params=CfoiParams(1.5, -0.4, 1.0), "
                "tm=2.0, wmin=0.01, wmax=100.0, norder=8, m=2 ** 20))\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) / 1024 <= 300

    def test_grid_within_band(self, small_result):
        omegas = small_result.f_ref.grid.omegas
        assert omegas[0] >= 0.01 and omegas[-1] <= 40.0
        assert np.all(np.diff(omegas) > 0)

    def test_model_shapes(self, small_result):
        assert len(small_result.gd.num) == 6
        assert len(small_result.gd.den) == 6
        assert small_result.gd.den[0] == 1.0
        assert small_result.gc.den[0] == 1.0
        assert small_result.gd.ts == pytest.approx(2.0 / 256)

    def test_metrics_nonnegative(self, small_result):
        for m in (small_result.metrics.discrete, small_result.metrics.continuous):
            assert m.impulse_rel_l2 >= 0
            assert m.impulse_max_abs >= 0
            assert m.mag_max_err_db >= 0
            assert m.phase_max_err_deg >= 0

    def test_metrics_match_public_comparisons(self, small_result):
        # one definition of the metrics: the impulse metrics on every
        # returned sample, [dt, tm], and the frequency metrics on the whole
        # band, bit for bit as the public helpers give them
        res = small_result
        for h, f, got in ((res.h_d, res.f_d, res.metrics.discrete),
                          (res.h_c, res.f_c, res.metrics.continuous)):
            want = (compare_impulse(res.h_ref, h)
                    + compare_frequency(res.f_ref, f))
            assert (got.impulse_rel_l2, got.impulse_max_abs,
                    got.mag_max_err_db, got.phase_max_err_deg) == want

    def test_deterministic(self, small_result):
        req = IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                          wmin=0.01, wmax=40.0, norder=5, m=256, npoints=60)
        again = irid_fcoi(req)
        assert np.array_equal(again.h_ref.values, small_result.h_ref.values)
        assert np.array_equal(again.h_d.values, small_result.h_d.values)
        assert np.array_equal(again.gd.den, small_result.gd.den)
        assert again.metrics == small_result.metrics

    def test_phase_error_is_the_largest_point_gap(self):
        # a close impulse fit whose phase at wmin is +151.6 deg against the
        # exact -177.0 deg: curves unwrapped each from its own start read
        # 392.8 deg, while no point is more than 44.2 deg off
        req = IridRequest(params=CfoiParams(0.1, -0.5, 10.0), tm=0.5,
                          wmin=0.01, wmax=100.0, norder=8, m=256)
        res = irid_fcoi(req)
        assert res.metrics.discrete.impulse_rel_l2 <= 1e-4
        for f, got in ((res.f_d, res.metrics.discrete),
                       (res.f_c, res.metrics.continuous)):
            gap = np.angle(f.response / res.f_ref.response)
            assert got.phase_max_err_deg <= 180.0
            assert got.phase_max_err_deg == pytest.approx(
                np.degrees(np.max(np.abs(gap))), abs=1e-9)

    def test_wmax_clamped_to_nyquist(self):
        for wmax in (500.0, math.inf):
            req = IridRequest(params=CfoiParams(1.0, 0.0, 1.0), tm=2.0,
                              wmin=0.1, wmax=wmax, norder=2, m=64, npoints=20)
            with pytest.warns(UserWarning, match="clamp"):
                res = irid_fcoi(req)
            assert res.f_ref.grid.omegas[-1] <= 0.9 * math.pi / (2.0 / 64)

    def test_fit_stage_failure_is_labelled(self):
        # a valid request cannot ask for too few samples any more, so the
        # model stages are handed a reference the fit cannot use: all zeros
        req = IridRequest(params=CfoiParams(1.0, 0.0, 1.0), tm=2.0,
                          wmin=0.1, wmax=10.0, norder=5, m=64, npoints=20)
        dt = req.tm / req.m
        with pytest.raises(PipelineStageError) as err:
            _models(req, TimeSeries(dt, dt, np.zeros(req.m)))
        assert err.value.stage == "fit"
        assert isinstance(err.value.cause, EvaluationError)

    @staticmethod
    def outputs(res):
        """Every output of a run, floats as their bytes."""
        series = [(h.t0, h.dt, h.values.tobytes())
                  for h in (res.h_ref, res.h_d, res.h_c)]
        models = [c.tobytes() for c in (res.gd.num, res.gd.den, res.gc.num,
                                        res.gc.den)]
        responses = [(f.grid.omegas.tobytes(), f.response.tobytes())
                     for f in (res.f_ref, res.f_d, res.f_c)]
        return (series, res.gd.ts, models, responses, asdict(res.metrics),
                res.stable)

    # lattice points of the benchmark's domain_sweep: tm = 20 at m = 256
    # clamps wmax = 100 to the band limit, 36.2 rad/s
    @pytest.mark.parametrize("lam, mu, wgc, tm, m", [
        (1.5, -0.5, 1.0, 2.0, 256), (0.5, -0.95, 10.0, 20.0, 256),
        (1.95, 0.0, 0.1, 0.5, 4096), (0.1, -0.5, 1.0, 20.0, 4096)])
    def test_models_share_one_reference(self, lam, mu, wgc, tm, m):
        # one reference, fitted at three orders, gives irid_fcoi's bits for
        # each, and the model stages leave it as it was; only irid_fcoi
        # warns of the clamp
        params = CfoiParams(lam, mu, wgc)
        h_ref = _reference(params, tm, m)
        before = h_ref.values.copy()
        for norder in (2, 5, 8):
            req = IridRequest(params=params, tm=tm, wmin=0.01, wmax=100.0,
                              norder=norder, m=m)
            shared = _models(req, h_ref)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "wmax=.*clamping",
                                        UserWarning)
                alone = irid_fcoi(req)
            assert self.outputs(shared) == self.outputs(alone)
        assert h_ref.values.tobytes() == before.tobytes()

    @pytest.mark.parametrize("mu", [-0.4, -0.2])
    def test_continuous_impulse_matches_residues(self, mu):
        # h_c is the exact impulse response of gc: sum of residue * e^(p t)
        # over the (simple) poles of its strictly proper part
        req = IridRequest(params=CfoiParams(1.5, mu, 1.0), tm=2.0,
                          wmin=0.01, wmax=100.0, norder=5)
        res = irid_fcoi(req)
        num, den = res.gc.num, res.gc.den
        rem = np.polysub(num, num[0] * den)
        poles = np.roots(den)
        residues = np.polyval(rem, poles) / np.polyval(np.polyder(den), poles)
        t = res.h_c.times
        want = np.real(np.exp(np.outer(t, poles)) @ residues)
        gap = np.linalg.norm(res.h_c.values - want) / np.linalg.norm(want)
        assert gap <= 1e-9

    def test_discrete_impulse_overflow_is_labelled(self, monkeypatch):
        # a discrete pole at z = 100: 100**k overflows at k = 155 < m, while
        # its continuous image is still finite over the window
        def fit(h, nb, na):
            return DiscreteTransferFunction([1.0, 0.0], [1.0, -100.0], h.dt)

        monkeypatch.setattr(irid.pipeline, "stmcb_fit", fit)
        req = IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                          wmin=0.01, wmax=100.0, norder=1, m=256)
        with pytest.raises(PipelineStageError) as err:
            irid_fcoi(req)
        assert err.value.stage == "fit"
        assert isinstance(err.value.cause, EvaluationError)

    def test_rescaled_discrete_impulse_overflow_is_labelled(self,
                                                            monkeypatch):
        # a pole at z = 10**(307/255): the response is finite, peaking at
        # 1e307 at k = m - 1, and overflows only in the rescale by
        # 1/dt = 128; no RuntimeWarning may leak (warnings are errors)
        def fit(h, nb, na):
            return DiscreteTransferFunction([1.0, 0.0],
                                            [1.0, -10.0 ** (307 / 255)], h.dt)

        monkeypatch.setattr(irid.pipeline, "stmcb_fit", fit)
        req = IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                          wmin=0.01, wmax=100.0, norder=1, m=256)
        with pytest.raises(PipelineStageError) as err:
            irid_fcoi(req)
        assert err.value.stage == "fit"
        assert isinstance(err.value.cause, EvaluationError)

    def test_bilinear_underflow_is_labelled(self):
        # an accepted request whose continuous model is out of the double
        # range: (ts/2)**120 = 2**-1200 underflows to zero
        req = IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                          wmin=0.01, wmax=100.0, norder=120, m=1024)
        with pytest.raises(PipelineStageError) as err:
            irid_fcoi(req)
        assert err.value.stage == "conversion"
        assert isinstance(err.value.cause, EvaluationError)

    def test_continuous_impulse_overflow_is_labelled(self, monkeypatch):
        # a discrete pole at z = -1.01 maps to s = +402/ts, whose response
        # overflows long before t = tm
        def fit(h, nb, na):
            return DiscreteTransferFunction([1.0, 0.0], [1.0, 1.01], h.dt)

        monkeypatch.setattr(irid.pipeline, "stmcb_fit", fit)
        req = IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                          wmin=0.01, wmax=100.0, norder=1, m=256)
        with pytest.raises(PipelineStageError) as err:
            irid_fcoi(req)
        assert err.value.stage == "conversion"

    def test_first_failing_stage_is_labelled(self, monkeypatch):
        # discrete poles at z = -1.01 and z = 100: the discrete response
        # overflows at sample 155, and the continuous image of z = -1.01,
        # s = +402/ts, already at sample 1; the fit stage runs first
        def fit(h, nb, na):
            return DiscreteTransferFunction([1.0, 0.0, 0.0],
                                            np.poly([-1.01, 100.0]), h.dt)

        monkeypatch.setattr(irid.pipeline, "stmcb_fit", fit)
        req = IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                          wmin=0.01, wmax=100.0, norder=2, m=256)
        with pytest.raises(PipelineStageError) as err:
            irid_fcoi(req)
        assert err.value.stage == "fit"
        assert "(sample 155)" in str(err.value.cause)

    def test_stability_flag_is_part_of_the_fit(self, monkeypatch):
        def broken(g):
            raise EvaluationError("no roots")

        monkeypatch.setattr(irid.pipeline, "is_stable_discrete", broken)
        req = IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                          wmin=0.01, wmax=10.0, norder=2, m=64, npoints=20)
        with pytest.raises(PipelineStageError) as err:
            irid_fcoi(req)
        assert err.value.stage == "fit"
        assert isinstance(err.value.cause, EvaluationError)

    @pytest.mark.parametrize("routine, stage, match", [
        ("dgeev", "fit", r"LAPACK geev info 1"),
        ("dgebal", "conversion", r"LAPACK gebal info 1"),
        ("dgesv", "conversion", r"LAPACK gesv info 1"),
    ])
    def test_failed_lapack_call_is_stage_labelled(self, monkeypatch, routine,
                                                  stage, match):
        # the stability test's eigenvalues and the matrix exponential's
        # balancing and solve, each reporting info = 1 (no convergence, a
        # failed balancing, a singular factor): an EvaluationError of its
        # stage, not numpy's LinAlgError
        real = getattr(irid.lti, routine)

        def failing(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 1)
        monkeypatch.setattr(irid.lti, routine, failing)
        req = IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=2.0,
                          wmin=0.01, wmax=100.0, norder=5, m=256)
        with pytest.raises(PipelineStageError) as err:
            irid_fcoi(req)
        assert err.value.stage == stage
        assert isinstance(err.value.cause, EvaluationError)
        assert re.search(match, str(err.value.cause))

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("mu", [-0.2, -0.4])
    @pytest.mark.parametrize("wgc", [0.5, 1.0])
    def test_impulse_invariance_across_parameters(self, lam, mu, wgc):
        # the property the method is named for: the discrete model's
        # impulse response stays close to the exact one
        req = IridRequest(params=CfoiParams(lam, mu, wgc), tm=2.0,
                          wmin=0.01, wmax=100.0, norder=5)
        res = irid_fcoi(req)
        assert res.metrics.discrete.impulse_rel_l2 <= 0.05

    @staticmethod
    def discrete_error(lam, mu, wgc):
        req = IridRequest(params=CfoiParams(lam, mu, wgc), tm=2.0,
                          wmin=0.01, wmax=100.0, norder=5, m=256)
        return irid_fcoi(req).metrics.discrete.impulse_rel_l2

    def test_fit_at_large_crossover(self):
        # the fit scales its data by a power of two, so h_ref ~ 1e9 no
        # longer loses the numerator to the rank rule (rel L2 2268 before)
        assert self.discrete_error(1.5, -0.4, 1e6) < 1e-4

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("lam,mu,norder,m", [
        (0.1, 0.0, 2, 256), (0.5, -0.95, 8, 256), (1.5, -0.5, 5, 4096),
        (1.95, -0.95, 8, 4096)])
    def test_power_of_two_covariance(self, lam, mu, norder, m, k):
        # h(t) = wgc * hhat(wgc * t), and the Bromwich line scales with
        # 1/tm: scaling wgc and the band by 2**k and tm by 2**-k multiplies
        # every impulse series by 2**k, exactly, and leaves the discrete
        # fit unchanged.  The frequency metrics are left out: logspace does
        # not scale the grid's interior points exactly
        def result(scale):
            return irid_fcoi(IridRequest(
                params=CfoiParams(lam, mu, scale), tm=2.0 / scale,
                wmin=0.01 * scale, wmax=100.0 * scale, norder=norder, m=m))

        base, scaled = result(1.0), result(2.0 ** k)
        for name in ("h_ref", "h_d", "h_c"):
            np.testing.assert_array_equal(
                getattr(scaled, name).values,
                getattr(base, name).values * 2.0 ** k, err_msg=name)
        np.testing.assert_array_equal(scaled.gd.num, base.gd.num)
        np.testing.assert_array_equal(scaled.gd.den, base.gd.den)
        for model in ("discrete", "continuous"):
            got = getattr(scaled.metrics, model)
            want = getattr(base.metrics, model)
            assert got.impulse_rel_l2 == want.impulse_rel_l2, model
            assert got.impulse_max_abs == want.impulse_max_abs * 2.0 ** k, model

    def test_fit_error_does_not_depend_on_crossover(self):
        # for mu = 0, wgc only scales h_ref, by wgc**lam
        errs = [self.discrete_error(1.5, 0.0, w) for w in (1e-8, 1.0, 1e10)]
        assert max(errs) <= 1.01 * min(errs)


def finite_metrics(res) -> bool:
    metrics = asdict(res.metrics)
    return all(math.isfinite(v) for errors in metrics.values()
               for v in errors.values())


class TestBreakdownContract:
    """A run returns finite metrics or raises a stage-labelled
    EvaluationError, and warns only about the clamp (warnings are errors
    in this suite); its stability flag says whether every continuous pole
    has Re < 0.  The requests are accepted ones at the edge of the double
    range."""

    def request(self, lam, mu, wgc):
        return IridRequest(params=CfoiParams(lam, mu, wgc), tm=2.0,
                           wmin=0.01, wmax=100.0, norder=5, m=256)

    def test_huge_reference_gives_finite_metrics(self):
        # h_ref peaks near 1e285; squaring it in the norm used to overflow
        assert finite_metrics(irid_fcoi(self.request(1.9, 0.0, 1e150)))

    def test_tiny_reference_gives_its_own_gap(self):
        # h_ref peaks near 1.5e-162, so its square underflows to zero; the
        # relative L2 used to read 0.0 (inf before that) from 0/0
        req = IridRequest(params=CfoiParams(0.7406857630463517,
                                            -0.678407528283172,
                                            1.0447727400146482e-221),
                          tm=8.245572853291526e-06, wmin=420.15,
                          wmax=42014.7, norder=1, m=128, npoints=20)
        res = irid_fcoi(req)
        ref = 1e160 * res.h_ref.values
        for h, got in ((res.h_d, res.metrics.discrete),
                       (res.h_c, res.metrics.continuous)):
            want = (np.linalg.norm(ref - 1e160 * h.values)
                    / np.linalg.norm(ref))
            assert got.impulse_rel_l2 == pytest.approx(want, rel=1e-12)
            assert got.impulse_rel_l2 > 0.5

    @pytest.mark.parametrize("lam,mu,wgc,stage", [
        (1.95, -0.5, 2e158, "nilt"),     # inverted samples overflow
        (1.0, 0.0, 1e-300, "compare"),   # magnitudes below the dB scale
        (1.5, 0.0, 1e-250, "nilt"),      # the reference underflows to zero
        (1.9, 0.0, 1e161, "conversion"),  # continuous coefficients overflow
    ], ids=["nilt", "compare", "nilt-underflow", "conversion"])
    def test_breakdown_is_stage_labelled(self, lam, mu, wgc, stage):
        with pytest.raises(PipelineStageError) as err:
            irid_fcoi(self.request(lam, mu, wgc))
        assert err.value.stage == stage
        assert isinstance(err.value.cause, EvaluationError)

    def test_overflowing_frequency_response_is_labelled(self):
        # (wgc/wmin)**1.9 ~ 4e162**1.9 is out of the double range: the
        # comparison raises instead of reporting inf/nan metrics
        wmin = 1e-6 * _band_limit(2.0, 64)
        req = IridRequest(params=CfoiParams(1.9, 0.0, 3.6e158), tm=2.0,
                          wmin=wmin, wmax=10.0, norder=2, m=64, npoints=20)
        with pytest.raises(PipelineStageError) as err:
            irid_fcoi(req)
        assert err.value.stage == "compare"
        assert isinstance(err.value.cause, EvaluationError)

    # generation only: a failing request is reported as drawn, since
    # shrinking it would rerun the pipeline for minutes
    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None, phases=[Phase.generate])
    @given(lam=st.floats(0.01, 1.99), mu=st.floats(-0.99, 0.0),
           log_wgc=st.floats(-300.0, 300.0), log_tm=st.floats(-6.0, 6.0),
           log_m=st.integers(6, 10), norder=st.integers(1, 8),
           log_band=st.floats(-6.0, -1.0), open_band=st.booleans())
    def test_random_accepted_requests(self, lam, mu, log_wgc, log_tm, log_m,
                                      norder, log_band, open_band):
        # m >= 64 always holds the 6*norder <= 48 samples a fit needs
        m, tm = 2 ** log_m, 10.0 ** log_tm
        wmin = _band_limit(tm, m) * 10.0 ** log_band
        req = IridRequest(params=CfoiParams(lam, mu, 10.0 ** log_wgc),
                          tm=tm, wmin=wmin,
                          wmax=math.inf if open_band else 100.0 * wmin,
                          norder=norder, m=m, npoints=20)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "wmax=.*clamping", UserWarning)
            try:
                res = irid_fcoi(req)
            except PipelineStageError as err:
                assert isinstance(err.cause, EvaluationError), err
                return
        assert finite_metrics(res)
        # the bilinear map sends the unit disc onto the left half-plane;
        # margins within 1e-6 of the unit circle are roundoff-dominated
        if abs(is_stable_discrete(res.gd)[1]) >= 1e-6:
            assert res.stable == bool(np.all(np.roots(res.gc.den).real < 0.0))


class TestFitQualitySweep:
    # sweeps over lam x mu x (wgc, tm) x norder; a good fit has a discrete
    # impulse relative L2 below 0.1 on [dt, tm].  Orders 5 and 8 fit
    # everywhere; order 2 cannot follow every integrator.  The kept
    # iterate's output error over all samples is never above pass 1's, the
    # equation-error fit, and the reported metric is that output error
    # relative to the data: the fit is scored on the window it minimizes
    # over.  The two differ only by rounding: at most 2.8e-5 relative at
    # m=256, where the metric is near 2e-13, 1.2e-7 at m=4096 and 6.8e-8
    # at m=16384.
    @staticmethod
    def sweep(monkeypatch, wgc_tm, m, norders=(2, 5, 8)):
        """(good discrete fits per order, good continuous fits, worst
        discrete score per order); each integrator is inverted once, by
        the first of its requests, and irid_fcoi fits its models to that
        one kept reference at every order."""
        good = dict.fromkeys(norders, 0)
        worst = dict.fromkeys(norders, 0.0)
        good_continuous = 0
        for lam, mu, (wgc, tm) in itertools.product(
                (0.1, 0.5, 1.0, 1.5, 1.95), (0.0, -0.5, -0.95), wgc_tm):
            params = CfoiParams(lam, mu, wgc)
            for norder in norders:
                req = IridRequest(params=params, tm=tm, wmin=0.01,
                                  wmax=100.0, norder=norder, m=m)
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "wmax=.*clamping",
                                            UserWarning)
                    res = irid_fcoi(req)
                assert res.gd.den[0] == res.gc.den[0] == 1.0, req
                score = res.metrics.discrete.impulse_rel_l2
                good[norder] += score < 0.1
                worst[norder] = max(worst[norder], score)
                good_continuous += res.metrics.continuous.impulse_rel_l2 < 0.1
                h_ref = res.h_ref
                data = TimeSeries(h_ref.t0, h_ref.dt, h_ref.dt * h_ref.values)
                with monkeypatch.context() as patch:
                    patch.setattr(irid.sysid, "_PASSES", 1)
                    first = stmcb_fit(data, norder, norder)
                errors = [np.linalg.norm(data.values - discrete_impulse(
                    g, req.m).values) for g in (res.gd, first)]
                assert errors[0] <= errors[1], req
                fit = errors[0] / np.linalg.norm(data.values)
                assert score == pytest.approx(fit, rel=1e-4), req
        return good, good_continuous, worst

    @pytest.mark.long_double
    def test_m256_lattice(self, monkeypatch):
        # the m=256 half of the benchmark's domain_sweep lattice, 405
        # requests.  With a tail rounded to double, one order-8 request
        # (lam 1, mu 0, wgc 1, tm 0.5) keeps an iterate whose output error,
        # 1.628e-13, is above its first pass's 1.626e-13
        good, good_continuous, worst = self.sweep(
            monkeypatch, itertools.product((0.1, 1.0, 10.0), (0.5, 2.0, 20.0)),
            256)
        assert good[5] == good[8] == 135
        assert good[2] >= 116
        assert good_continuous >= 235
        assert worst[5] < 2.1e-3 and worst[8] < 1.4e-4

    def test_m4096_crossover_window_products(self, monkeypatch):
        # the lattice's seven distinct wgc*tm products at wgc = 1, 315
        # requests: a result depends on wgc and tm through their product
        # alone (test_power_of_two_covariance)
        good, good_continuous, worst = self.sweep(
            monkeypatch, [(1.0, tm) for tm in
                          (0.05, 0.2, 0.5, 2.0, 5.0, 20.0, 200.0)], 4096)
        assert good[5] == good[8] == 105
        assert good[2] >= 61
        assert good_continuous >= 181
        assert worst[5] < 0.042 and worst[8] < 0.057

    def test_m16384_crossover_window_products(self, monkeypatch):
        # the same 105 (lam, mu, wgc*tm) points at m=16384, orders 5 and 8
        # only, 210 requests: order 2 would add half again to the time.
        # Order 5 misses one request, lam=1, mu=-0.95, wgc*tm=0.2 (0.106);
        # order 8's worst is lam=0.5, mu=-0.95, wgc*tm=5 (0.065)
        good, good_continuous, worst = self.sweep(
            monkeypatch, [(1.0, tm) for tm in
                          (0.05, 0.2, 0.5, 2.0, 5.0, 20.0, 200.0)], 16384,
            (5, 8))
        assert good[5] >= 104 and good[8] == 105
        assert good_continuous >= 130
        assert worst[5] < 0.107 and worst[8] < 0.066


class TestWriteOutputs:
    def test_files_written(self, small_result, tmp_path):
        paths = write_outputs(small_result, tmp_path / "out")
        names = {p.name for p in paths}
        assert names == {"impulse.csv", "freq.csv", "coeffs.json",
                         "summary.txt", "impulse.svg", "freq.svg"}
        impulse = (tmp_path / "out" / "impulse.csv").read_text()
        lines = impulse.splitlines()
        assert lines[0] == "t,h_cfoi,h_discrete,h_continuous"
        assert len(lines) == len(small_result.h_ref) + 1
        freq = (tmp_path / "out" / "freq.csv").read_text()
        assert len(freq.splitlines()) == len(small_result.f_ref.grid) + 1
        assert freq.splitlines()[0].startswith("omega_rad_s,mag_db_cfoi")

    def test_no_svg(self, small_result, tmp_path):
        paths = write_outputs(small_result, tmp_path / "bare", svg=False)
        assert {p.name for p in paths} == {"impulse.csv", "freq.csv",
                                           "coeffs.json", "summary.txt"}

    def test_coeffs_roundtrip_bitwise(self, small_result, tmp_path):
        write_outputs(small_result, tmp_path / "rt", svg=False)
        data = json.loads((tmp_path / "rt" / "coeffs.json").read_text())
        assert data["discrete"]["num"] == small_result.gd.num.tolist()
        assert data["discrete"]["den"] == small_result.gd.den.tolist()
        assert data["discrete"]["ts"] == small_result.gd.ts
        assert data["continuous"]["num"] == small_result.gc.num.tolist()
        assert data["continuous"]["den"] == small_result.gc.den.tolist()
        assert data["stable_discrete"] == small_result.stable
        assert data["metrics"] == asdict(small_result.metrics)

    def test_empty_dir_rejected(self, small_result):
        with pytest.raises(ParamError, match="empty output directory"):
            write_outputs(small_result, "")

    def test_csv_roundtrip_bitwise(self, small_result, tmp_path):
        write_outputs(small_result, tmp_path / "rt", svg=False)

        def columns(name):
            lines = (tmp_path / "rt" / name).read_text().splitlines()[1:]
            rows = [[float(v) for v in line.split(",")] for line in lines]
            return np.array(rows).T

        r = small_result
        want = [r.h_ref.times, r.h_ref.values, r.h_d.values, r.h_c.values]
        for got, col in zip(columns("impulse.csv"), want, strict=True):
            assert np.array_equal(got, col)
        want = [r.f_ref.grid.omegas]
        for f in (r.f_ref, r.f_d, r.f_c):
            want += [f.magnitude_db(), f.phase_deg()]
        for got, col in zip(columns("freq.csv"), want, strict=True):
            assert np.array_equal(got, col)

    @staticmethod
    def reference_points(x, curves, logx=False):
        # each polyline point formatted one at a time over the chart's range
        width, height, pad = 720, 420, 50
        xv = np.log10(x) if logx else x
        ys = np.concatenate(curves)
        x0, x1 = float(np.min(xv)), float(np.max(xv))
        y0, y1 = float(np.min(ys)), float(np.max(ys))
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0

        def sx(v):
            return pad + (v - x0) / (x1 - x0) * (width - 2 * pad)

        def sy(v):
            return height - pad - (v - y0) / (y1 - y0) * (height - 2 * pad)

        return [" ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(xv, c))
                for c in curves]

    @staticmethod
    def polylines(text):
        return re.findall(r'<polyline points="([^"]*)"', text)

    def test_svg_points(self, small_result, tmp_path):
        write_outputs(small_result, tmp_path / "svg")
        r = small_result
        impulse = (tmp_path / "svg" / "impulse.svg").read_text()
        assert self.polylines(impulse) == self.reference_points(
            r.h_ref.times, [r.h_ref.values, r.h_d.values, r.h_c.values])
        freq = (tmp_path / "svg" / "freq.svg").read_text()
        assert self.polylines(freq) == self.reference_points(
            r.f_ref.grid.omegas,
            [f.magnitude_db() for f in (r.f_ref, r.f_d, r.f_c)], logx=True)

    def test_svg_labels(self, small_result, tmp_path):
        # the impulse reference is the numerical inversion, the frequency
        # reference the closed form
        write_outputs(small_result, tmp_path)

        def labels(name):
            return re.findall(r'font-size="12" fill="[^"]*">([^<]*)</text>',
                              (tmp_path / name).read_text())

        assert labels("impulse.svg") == ["reference (NILT)", "discrete",
                                         "continuous"]
        assert labels("freq.svg") == ["exact", "discrete", "continuous"]

    def test_svg_points_single_point_range(self, tmp_path):
        # log10 of both band ends rounds to 3.0: the x range is widened to
        # [x0, x0 + 1], and every coordinate stays finite
        req = IridRequest(params=CfoiParams(1.5, -0.4, 1.0), tm=1.0,
                          wmin=1000.0, wmax=math.nextafter(1000.0, math.inf),
                          norder=5, m=1024, npoints=2)
        r = irid_fcoi(req)
        write_outputs(r, tmp_path)
        points = self.polylines((tmp_path / "freq.svg").read_text())
        assert points == self.reference_points(
            r.f_ref.grid.omegas,
            [f.magnitude_db() for f in (r.f_ref, r.f_d, r.f_c)], logx=True)
        coords = [float(v) for line in points for v in re.split("[ ,]", line)]
        assert len(coords) == 12 and all(map(math.isfinite, coords))
        assert coords[0] == coords[2] == 50.0

    def test_svg_points_constant_curve(self):
        # min == max: the y range is widened to [y0, y0 + 1]
        x = np.linspace(0.5, 3.0, 40)
        curves = [np.full(40, -2.5)]
        text = irid.pipeline._svg_chart(x, curves, ["flat"], "flat")
        points = self.polylines(text)
        assert points == self.reference_points(x, curves)
        assert points[0].split()[0] == "50.00,370.00"
