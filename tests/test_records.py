"""The ten records: frozen, their repr, dataclasses' fields/replace/asdict,
value or identity equality, and pickle/deepcopy restores that stay
frozen and read-only."""

import copy
import pickle
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest

from irid.cfoi import CfoiParams
from irid.errors import ParamError
from irid.lti import (ContinuousTransferFunction, DiscreteTransferFunction,
                      FrequencyGrid, FrequencyResponseSeries, TimeSeries)
from irid.pipeline import (ComparisonMetrics, IridRequest, IridResult,
                           ModelErrors, _kept_reference, irid_fcoi)

PARAMS = CfoiParams(1.5, -0.4, 1.0)
REQUEST = IridRequest(params=PARAMS, tm=2.0, wmin=0.01, wmax=40.0,
                      norder=2, m=64, npoints=3)
ERRORS = ModelErrors(0.5, 0.25, 1.0, 2.0)
METRICS = ComparisonMetrics(ERRORS, ModelErrors(1.0, 2.0, 3.0, 4.0))
GRID = FrequencyGrid([1.0, 2.0])


@pytest.fixture(scope="module")
def result():
    return irid_fcoi(REQUEST)


def records(result):
    """One instance of each record with its repr, or None where the repr
    is checked by composition (IridResult)."""
    return [
        (PARAMS, "CfoiParams(lam=1.5, mu=-0.4, wgc=1.0)"),
        (DiscreteTransferFunction([2, 1], [2, 0, 1], 0.5),
         "DiscreteTransferFunction(num=array([1. , 0.5, 0. ]), "
         "den=array([1. , 0. , 0.5]), ts=0.5)"),
        (ContinuousTransferFunction([0, 1], [2, 4]),
         "ContinuousTransferFunction(num=array([0.5]), den=array([1., 2.]))"),
        (TimeSeries(0, 0.5, [1, 2]),
         "TimeSeries(t0=0.0, dt=0.5, values=array([1., 2.]))"),
        (GRID, "FrequencyGrid(omegas=array([1., 2.]))"),
        (FrequencyResponseSeries(GRID, [1j, 2]),
         "FrequencyResponseSeries(grid=FrequencyGrid(omegas=array([1., 2.]"
         ")), response=array([0.+1.j, 2.+0.j]))"),
        (REQUEST,
         "IridRequest(params=CfoiParams(lam=1.5, mu=-0.4, wgc=1.0), tm=2.0, "
         "wmin=0.01, wmax=40.0, norder=2, m=64, npoints=3)"),
        (ERRORS, "ModelErrors(impulse_rel_l2=0.5, impulse_max_abs=0.25, "
                 "mag_max_err_db=1.0, phase_max_err_deg=2.0)"),
        (METRICS, f"ComparisonMetrics(discrete={ERRORS!r}, "
                  f"continuous={METRICS.continuous!r})"),
        (result, None),
    ]


def test_ten_records(result):
    assert len({type(rec) for rec, _ in records(result)}) == 10


def test_fields_are_frozen(result):
    for rec, _ in records(result):
        for f in fields(rec):
            value = getattr(rec, f.name)
            with pytest.raises(FrozenInstanceError,
                               match=f"cannot assign to field '{f.name}'"):
                setattr(rec, f.name, value)
            with pytest.raises(FrozenInstanceError,
                               match=f"cannot delete field '{f.name}'"):
                delattr(rec, f.name)
            assert getattr(rec, f.name) is value
        with pytest.raises(FrozenInstanceError):
            rec.extra = 1


def test_repr(result):
    for rec, text in records(result):
        if text is not None:
            assert repr(rec) == text
    assert repr(result) == "IridResult(" + ", ".join(
        f"{name}={getattr(result, name)!r}" for name in (
            "request", "gd", "gc", "h_ref", "h_d", "h_c", "f_ref", "f_d",
            "f_c", "metrics", "stable")) + ")"
    # the derived grid is left out
    assert "grid" not in repr(REQUEST)


def test_fields():
    assert [(f.name, f.init, f.repr, f.compare) for f in fields(IridRequest)
            ] == [("params", True, True, True), ("tm", True, True, True),
                  ("wmin", True, True, True), ("wmax", True, True, True),
                  ("norder", True, True, True), ("m", True, True, True),
                  ("npoints", True, True, True),
                  ("grid", False, False, False)]
    assert [(f.name, f.default) for f in fields(IridRequest)][5:7] == [
        ("m", 1024), ("npoints", 200)]
    assert [f.name for f in fields(IridResult)] == [
        "request", "gd", "gc", "h_ref", "h_d", "h_c", "f_ref", "f_d", "f_c",
        "metrics", "stable"]
    assert [f.name for f in fields(DiscreteTransferFunction)] == [
        "num", "den", "ts"]


def test_defaults_and_keywords():
    req = IridRequest(PARAMS, 2.0, 0.01, 40.0, 2)
    assert (req.m, req.npoints) == (1024, 200)
    assert IridRequest(params=PARAMS, tm=2.0, wmin=0.01, wmax=40.0,
                       norder=2, m=64, npoints=3) == REQUEST
    with pytest.raises(TypeError):
        IridRequest(PARAMS, 2.0, 0.01, 40.0)
    with pytest.raises(TypeError):
        IridRequest(PARAMS, 2.0, 0.01, 40.0, 2, grid=GRID)
    with pytest.raises(TypeError):
        ModelErrors(1.0, 2.0, 3.0)


def test_replace_validates():
    wider = replace(REQUEST, npoints=5)
    assert (wider.npoints, len(wider.grid), wider.m) == (5, 5, 64)
    with pytest.raises(ParamError):
        replace(REQUEST, m=100)
    with pytest.raises(ValueError, match="init=False"):
        replace(REQUEST, grid=GRID)
    assert replace(PARAMS, mu=-0.0).mu.hex() == "0x0.0p+0"
    with pytest.raises(ParamError):
        replace(PARAMS, lam=2.0)
    ts = replace(TimeSeries(0, 0.5, [1, 2]), dt=1)
    assert ts.dt == 1.0 and not ts.values.flags.writeable


def test_asdict(result):
    assert asdict(METRICS) == {
        "discrete": {"impulse_rel_l2": 0.5, "impulse_max_abs": 0.25,
                     "mag_max_err_db": 1.0, "phase_max_err_deg": 2.0},
        "continuous": {"impulse_rel_l2": 1.0, "impulse_max_abs": 2.0,
                       "mag_max_err_db": 3.0, "phase_max_err_deg": 4.0}}
    request = asdict(REQUEST)
    assert list(request) == [f.name for f in fields(IridRequest)]
    assert request["params"] == {"lam": 1.5, "mu": -0.4, "wgc": 1.0}
    np.testing.assert_array_equal(request["grid"]["omegas"],
                                  REQUEST.grid.omegas)
    assert asdict(result)["gd"]["ts"] == result.gd.ts


def test_value_records_compare_and_hash_by_value():
    pairs = [(PARAMS, CfoiParams(1.5, -0.4, 1)),
             (REQUEST, IridRequest(CfoiParams(1.5, -0.4, 1.0), 2, 0.01, 40,
                                   2, 64, 3)),
             (ERRORS, ModelErrors(0.5, 0.25, 1.0, 2.0)),
             (METRICS, ComparisonMetrics(ModelErrors(0.5, 0.25, 1.0, 2.0),
                                         METRICS.continuous))]
    for a, b in pairs:
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    # the grid takes no part: equal requests hold distinct grids, which
    # compare by identity
    assert REQUEST.grid != pairs[1][1].grid
    assert PARAMS != CfoiParams(1.5, -0.2, 1.0)
    assert REQUEST != replace(REQUEST, norder=3)
    assert ERRORS != ModelErrors(0.5, 0.25, 1.0, 3.0)
    # another type is never equal, not even one holding the same values
    assert PARAMS != (1.5, -0.4, 1.0)
    assert PARAMS.__eq__((1.5, -0.4, 1.0)) is NotImplemented


def test_array_records_compare_by_identity(result):
    for rec, _ in records(result)[1:6] + [(result, None)]:
        twin = copy.copy(rec)
        assert rec == rec and hash(rec) == hash(rec)
        assert twin is not rec and twin != rec


def test_equal_params_share_one_reference():
    _kept_reference.cache_clear()
    try:
        a = replace(REQUEST, params=CfoiParams(1.5, -0.4, 1.0))
        b = replace(REQUEST, params=CfoiParams(1.5, -0.4, 1.0))
        assert a.params is not b.params
        first, second = irid_fcoi(a), irid_fcoi(b)
        info = _kept_reference.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert second.h_ref is first.h_ref
    finally:
        _kept_reference.cache_clear()


def _arrays(rec, path=""):
    """Every array a record holds, nested records included, by path."""
    for f in fields(rec):
        value = getattr(rec, f.name)
        if isinstance(value, np.ndarray):
            yield path + f.name, value
        elif hasattr(value, "__dataclass_fields__"):
            yield from _arrays(value, f"{path}{f.name}.")


RESTORES = {"pickle": lambda rec: pickle.loads(pickle.dumps(rec)),
            "deepcopy": copy.deepcopy}
# the five array records, the request with its grid, and a whole result
HOLDING_ARRAYS = {"DiscreteTransferFunction": 1,
                  "ContinuousTransferFunction": 2, "TimeSeries": 3,
                  "FrequencyGrid": 4, "FrequencyResponseSeries": 5,
                  "IridRequest": 6, "IridResult": 9}


@pytest.mark.parametrize("restore", RESTORES.values(), ids=RESTORES)
@pytest.mark.parametrize("index", HOLDING_ARRAYS.values(),
                         ids=HOLDING_ARRAYS)
def test_restored_records_stay_read_only(result, restore, index):
    rec, text = records(result)[index]
    back = restore(rec)
    assert type(back) is type(rec)
    arrays, again = dict(_arrays(rec)), dict(_arrays(back))
    assert arrays and list(again) == list(arrays)
    for name, arr in again.items():
        assert not arr.flags.writeable, name
        assert arr.dtype == arrays[name].dtype, name
        np.testing.assert_array_equal(arr, arrays[name])
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 99.0
    if text is not None:
        assert repr(back) == text
    with pytest.raises(FrozenInstanceError):
        back.extra = 1


@pytest.mark.parametrize("restore", RESTORES.values(), ids=RESTORES)
def test_restored_value_records_are_equal(result, restore):
    for rec in (PARAMS, REQUEST, ERRORS, METRICS, result.metrics):
        back = restore(rec)
        assert back == rec and hash(back) == hash(rec)
    back = restore(result)
    assert back.request == result.request and back.stable == result.stable
    assert back.gd.ts == result.gd.ts and back.h_ref.dt == result.h_ref.dt
