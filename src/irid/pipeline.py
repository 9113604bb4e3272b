"""End-to-end impulse-response-invariant discretization of the complex
fractional order integrator, with comparison metrics and file outputs.

The pipeline inverts the integrator's transfer function numerically,
scales the sampled response by the sample period (impulse-invariance
convention, so the discrete model's frequency response approximates the
continuous one), fits a discrete rational model by Steiglitz-McBride
iteration, converts it to a continuous model with the bilinear transform
and reports impulse- and frequency-domain closeness for both.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from .cfoi import CfoiParams, cfoi_freq_grid, cfoi_transfer
from .errors import EvaluationError, IridError, ParamError, PipelineStageError
from .lti import (ContinuousTransferFunction, DiscreteTransferFunction,
                  FrequencyGrid, FrequencyResponseSeries, TimeSeries,
                  _all_finite, _count, _decibels, _finite_real, _positive,
                  _Record, _sum_squares, _Value,
                  continuous_freq_response, continuous_impulse,
                  discrete_freq_response, discrete_impulse,
                  is_stable_discrete)
from .nilt import _check_window, nilt
from .sysid import _check_fit, bilinear_d2c, stmcb_fit

__all__ = [
    "IridRequest",
    "IridResult",
    "ModelErrors",
    "ComparisonMetrics",
    "irid_fcoi",
    "compare_impulse",
    "compare_frequency",
    "write_outputs",
    "format_summary",
]

NYQUIST_MARGIN = 0.9


def _band_limit(tm: float, m: int) -> float:
    """Highest band frequency for window tm and m samples: NYQUIST_MARGIN
    times the Nyquist rate pi/dt, dt = tm/m."""
    return NYQUIST_MARGIN * math.pi / (tm / m)


@dataclass(init=False, repr=False, eq=False)
class IridRequest(_Value):
    """One discretization job.

    The sample period is always derived as dt = tm/m.  The frequency band
    [wmin, wmax] must start below 0.9x the Nyquist rate; ``grid``, built
    on construction, is its log-spaced grid with wmax clamped to that
    limit, since the discrete model is meaningless above it, and
    ``irid_fcoi`` warns when the clamp cuts wmax.  The fit makes five
    Steiglitz-McBride passes.
    Every field is checked on construction, with the rules of the stage
    that uses it, so an invalid request raises ParamError before any
    numerical work.  ``m``, ``norder`` and ``npoints`` are integral, ``m``
    a power of two from 64 to 2**20, at least 6*norder and with
    m*(2*norder + 2), the fit matrix's entries, at most 2**20 * 18 (m =
    2**20 admits norder 8), ``npoints`` from 2 to 2**20, ``tm``
    and ``wmin`` finite real numbers > 0 and ``wmax`` a real number (+inf
    too) above ``wmin``; a string or a bool is never a number.
    """

    params: CfoiParams
    tm: float
    wmin: float
    wmax: float
    norder: int
    m: int = 1024
    npoints: int = 200
    # derived: the band grid, wmax clamped to the band limit
    grid: FrequencyGrid = field(init=False, repr=False, compare=False)

    def __init__(self, params, tm, wmin, wmax, norder, m=1024, npoints=200):
        if not isinstance(params, CfoiParams):
            raise ParamError(f"params must be a CfoiParams, got {params!r}")
        tm, m = _check_window(tm, m)
        wmin = _positive("wmin", wmin)
        # wmax may be +inf: it is clamped to the band limit below
        if not (_finite_real(wmax) or wmax == math.inf) or wmin >= wmax:
            raise ParamError("need 0 < wmin < wmax")
        limit = _band_limit(tm, m)
        if not wmin < limit:
            raise ParamError(f"wmin must be below {NYQUIST_MARGIN:g}x the "
                             f"Nyquist rate, {limit:g} rad/s")
        norder = _count("norder", norder, 1)
        _check_fit(m, norder, norder)
        grid = FrequencyGrid.log_spaced(wmin, min(wmax, limit), npoints)
        self._store(params, tm, wmin, float(wmax), norder, m, len(grid), grid)


@dataclass(init=False, repr=False, eq=False)
class ModelErrors(_Value):
    """Closeness of one approximate model to the integrator: the impulse
    scores by :func:`compare_impulse` against ``h_ref``, the numerically
    inverted reference, not the exact response, and the frequency scores
    by :func:`compare_frequency` against the exact G(j*omega) of
    ``cfoi_freq_response``."""

    impulse_rel_l2: float
    impulse_max_abs: float
    mag_max_err_db: float
    phase_max_err_deg: float

    def __init__(self, impulse_rel_l2, impulse_max_abs, mag_max_err_db,
                 phase_max_err_deg):
        object.__setattr__(self, "impulse_rel_l2", impulse_rel_l2)
        object.__setattr__(self, "impulse_max_abs", impulse_max_abs)
        object.__setattr__(self, "mag_max_err_db", mag_max_err_db)
        object.__setattr__(self, "phase_max_err_deg", phase_max_err_deg)


@dataclass(init=False, repr=False, eq=False)
class ComparisonMetrics(_Value):
    """The :class:`ModelErrors` of the discrete and the continuous model."""

    discrete: ModelErrors
    continuous: ModelErrors

    def __init__(self, discrete, continuous):
        object.__setattr__(self, "discrete", discrete)
        object.__setattr__(self, "continuous", continuous)


@dataclass(init=False, repr=False, eq=False)
class IridResult(_Record):
    """Fitted models, the three impulse/frequency series on shared grids,
    and the comparison metrics: each model's impulse response scored
    against the reference ``h_ref``, inverted numerically, and its
    frequency response against the exact one, ``f_ref``."""

    request: IridRequest
    gd: DiscreteTransferFunction
    gc: ContinuousTransferFunction
    h_ref: TimeSeries
    h_d: TimeSeries
    h_c: TimeSeries
    f_ref: FrequencyResponseSeries
    f_d: FrequencyResponseSeries
    f_c: FrequencyResponseSeries
    metrics: ComparisonMetrics
    stable: bool

    def __init__(self, request, gd, gc, h_ref, h_d, h_c, f_ref, f_d, f_c,
                 metrics, stable):
        self._store(request, gd, gc, h_ref, h_d, h_c, f_ref, f_d, f_c,
                    metrics, stable)


def compare_impulse(a: TimeSeries, b: TimeSeries) -> Tuple[float, float]:
    """(relative L2 distance, max absolute deviation) of b against a.

    Both series must share t0, dt and length.  A zero reference with a
    nonzero b reports an infinite relative error.  Both are scaled by the
    power of two that brings the larger of their peaks into [0.5, 1)
    before they are subtracted and the norms square them, so nothing
    overflows or underflows to zero: exact, and it cancels in the
    quotient.  The max absolute deviation is +inf only where it exceeds
    the double range.
    """
    if a.t0 != b.t0 or a.dt != b.dt or len(a) != len(b):
        raise ParamError("time series grids differ")
    peak = max(float(np.abs(a.values).max()), float(np.abs(b.values).max()))
    top = math.frexp(peak)[1]
    # np.ldexp, since 2.0**-top overflows for a subnormal peak
    ref = np.ldexp(a.values, -top)
    diff = np.ldexp(b.values, -top)
    np.subtract(ref, diff, out=diff)
    err = math.sqrt(_sum_squares(diff))
    norm = math.sqrt(_sum_squares(ref))
    with np.errstate(over="ignore"):
        dev = float(np.ldexp(np.abs(diff).max(), top))
    if norm == 0.0:
        return (0.0 if err == 0.0 else math.inf), dev
    return err / norm, dev


def _polar(f: FrequencyResponseSeries) -> Tuple[np.ndarray, np.ndarray]:
    """(magnitude in dB, angle) of ``f`` as new arrays, the magnitude as
    ``magnitude_db`` gives it; EvaluationError if a magnitude underflows
    the dB scale."""
    magnitude = np.abs(f.response)
    if magnitude.min() < 1e-300:
        raise EvaluationError("response magnitude underflows the dB scale")
    return _decibels(magnitude), np.angle(f.response)


def _score(ref: Tuple[np.ndarray, np.ndarray],
           b: FrequencyResponseSeries) -> Tuple[float, float]:
    """:func:`compare_frequency` of ``b`` against a response on the same
    grid whose :func:`_polar` is ``ref``, which stays unchanged."""
    ref_db, ref_angle = ref
    db, turn = _polar(b)
    np.subtract(ref_db, db, out=db)
    mag = np.abs(db, out=db).max()
    # the phase difference plus pi, wrapped to [0, 2*pi), minus pi
    turn -= ref_angle
    turn += math.pi
    np.remainder(turn, 2 * math.pi, out=turn)
    turn -= math.pi
    phase = np.degrees(np.abs(turn, out=turn).max())
    return float(mag), float(phase)


def compare_frequency(a: FrequencyResponseSeries,
                      b: FrequencyResponseSeries) -> Tuple[float, float]:
    """(max |magnitude difference| in dB, max |phase difference| in
    degrees) of b against a on their shared grid, the magnitudes from
    ``magnitude_db`` and the phase difference np.angle(b) - np.angle(a)
    taken per point and wrapped to [-180, 180); EvaluationError if a
    magnitude underflows the dB scale.  :func:`irid_fcoi` scores both
    models by the same code, with the exact response's dB and angle taken
    once."""
    if not np.array_equal(a.grid.omegas, b.grid.omegas):
        raise ParamError("frequency grids differ")
    return _score(_polar(a), b)


def _reference(params: CfoiParams, tm: float, m: int) -> TimeSeries:
    """The reference: the integrator's impulse response on (0, tm],
    inverted numerically; EvaluationError if it underflows to zero at
    every sample."""
    # nilt and cfoi_transfer stay module-level lookups, which the
    # benchmark's layer tracer wraps by name
    h_ref = nilt(lambda s: cfoi_transfer(params, s), tm, m)
    # G is nowhere zero, so an all-zero reference is an underflow
    if not h_ref.values.any():
        raise EvaluationError("the reference underflows to zero at every "
                              "sample")
    return h_ref


def _exact(params: CfoiParams, grid: FrequencyGrid
           ) -> Tuple[FrequencyResponseSeries, Tuple[np.ndarray, np.ndarray]]:
    """The integrator's exact response on ``grid`` and its :func:`_polar`,
    made read-only; EvaluationError if its magnitude underflows the dB
    scale."""
    f_ref = cfoi_freq_grid(params, grid)
    ref = _polar(f_ref)
    for part in ref:
        part.flags.writeable = False
    return f_ref, ref


# Two memos, the 8 last used entries each, hold the only request data irid
# keeps between requests, shared read-only: every model order of one
# integrator fits the same reference and scores against the same exact
# response.  References of at most 2**14 samples, 128 KiB each, are keyed
# by (params, tm, m).  Exact responses of at most 2**11 points, 80 KiB
# each with their grid, dB and angle, are keyed by (params, wmin, top,
# npoints), top the clamped wmax: log_spaced pins both ends, so the key
# rebuilds the request's grid bit for bit, and requests at another tm or
# m whose clamped band is the same share it.  Each memo holds at most
# 1 MiB (sysid's bilinear basis cache holds constants per model order).
# A call that raises keeps nothing, so it raises again on every call
_KEEP_REFERENCE_MAX_M = 2 ** 14
_kept_reference = functools.lru_cache(maxsize=8)(_reference)
_KEEP_EXACT_MAX_POINTS = 2 ** 11


@functools.lru_cache(maxsize=8)
def _kept_exact(params: CfoiParams, wmin: float, top: float, npoints: int
                ) -> Tuple[FrequencyResponseSeries,
                           Tuple[np.ndarray, np.ndarray]]:
    return _exact(params, FrequencyGrid.log_spaced(wmin, top, npoints))


def _models(req: IridRequest, h_ref: TimeSeries) -> IridResult:
    """Stages "fit", "conversion" and "compare" of :func:`irid_fcoi` on
    the reference ``h_ref`` of ``req``, which they leave unchanged."""
    dt = h_ref.dt
    # an IridError is re-raised as PipelineStageError(stage)
    stage = "fit"
    try:
        gd = stmcb_fit(TimeSeries(h_ref.t0, dt, dt * h_ref.values),
                       req.norder, req.norder)
        with np.errstate(over="ignore"):
            vals = discrete_impulse(gd, req.m).values / dt
        h_d = TimeSeries(dt, dt, _all_finite(
            "discrete impulse response overflows when rescaled by 1/dt", vals))
        stable, _ = is_stable_discrete(gd)

        stage = "conversion"
        gc = bilinear_d2c(gd)
        h_c = continuous_impulse(gc, dt, req.m)

        stage = "compare"
        if req.npoints <= _KEEP_EXACT_MAX_POINTS:
            f_ref, ref = _kept_exact(req.params, req.wmin,
                                     float(req.grid.omegas[-1]), req.npoints)
        else:
            f_ref, ref = _exact(req.params, req.grid)
        f_d = discrete_freq_response(gd, req.grid)
        f_c = continuous_freq_response(gc, req.grid)
        # the three responses share one grid: compare_frequency's scores,
        # the exact response's dB and angle taken once
        metrics = ComparisonMetrics(*(
            ModelErrors(*compare_impulse(h_ref, h), *_score(ref, f))
            for h, f in ((h_d, f_d), (h_c, f_c))))
    except IridError as exc:
        raise PipelineStageError(stage, exc) from exc
    return IridResult(request=req, gd=gd, gc=gc, h_ref=h_ref, h_d=h_d,
                      h_c=h_c, f_ref=f_ref, f_d=f_d, f_c=f_c,
                      metrics=metrics, stable=stable)


def irid_fcoi(req: IridRequest) -> IridResult:
    """Run the discretization pipeline for one integrator.

    Four stages, each run once and in this order.  The reference stage,
    "nilt", numerically inverts the exact transfer function on (0, tm],
    which :func:`irid.cfoi.cfoi_transfer` evaluates at every point nilt
    asks for: the Bromwich line and the 19 extended points.
    The last 8 references with m <= 2**14 are kept, keyed by (params, tm,
    m), and a request that repeats one shares its read-only series
    instead of inverting again, so every model order of one integrator
    fits one inversion.  Likewise the last 8 exact frequency responses
    with npoints <= 2**11, with their dB and angle, are kept, keyed by
    (params, wmin, clamped wmax, npoints), so every model order scores
    against one.  A call that raises is not kept.  These two memos, at
    most 1 MiB each, are the only request data kept between requests;
    the bilinear basis cache holds constants per model order.
    The model stages fit models to that reference: "fit" scales it by
    dt, fits a (norder, norder) discrete model, computes its impulse
    response by its difference equation, rescaled back by 1/dt so all
    three responses share one amplitude convention, and its stability
    flag; "conversion" bilinear-converts it to a continuous model and
    computes that model's impulse response exactly, from a state-space
    realization; "compare" computes all three frequency responses on a
    log grid, its wmax clamped to 0.9x the Nyquist rate, and scores both
    models by :func:`compare_impulse` on all m samples, [dt, tm], the
    window the fit minimizes its output error on, and by
    :func:`compare_frequency`.  The inversion is as accurate on the last
    fifth of the window as before it (see :mod:`irid.nilt`): for the
    orders 1.5-0.4j and 1.5-0.2j at tm=2, m=1024 and 16384, the relative
    L2 gap to the analytic impulse response on (0.8*tm, tm] is 1.4-1.7e-8,
    against 2.1-2.4e-8 on [dt, 0.8*tm].

    The request was validated on construction.  A run returns finite
    metrics or raises PipelineStageError tagged with the stage that broke
    down first; an impulse response overflows in "fit" for discrete poles
    far outside the unit circle and in "conversion" for continuous poles
    far in the right half-plane.  Only the clamp warning comes before the
    first stage, and nothing warns but the clamp.
    """
    top = req.grid.omegas[-1]
    if req.wmax > top:
        warnings.warn(f"wmax={req.wmax:g} rad/s exceeds {top:g}; clamping "
                      f"to it", stacklevel=2)
    try:
        invert = (_kept_reference if req.m <= _KEEP_REFERENCE_MAX_M
                  else _reference)
        h_ref = invert(req.params, req.tm, req.m)
    except IridError as exc:
        raise PipelineStageError("nilt", exc) from exc
    return _models(req, h_ref)


def _csv(header: str, columns: List[np.ndarray]) -> str:
    """One row per sample, each value the shortest decimal that round-trips
    the double exactly."""
    cells = [map(repr, col.tolist()) for col in columns]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


_SVG_COLORS = ("#555555", "#c02020", "#2040c0")


def _svg_chart(x: np.ndarray, curves: List[np.ndarray], labels: List[str],
               title: str, logx: bool = False) -> str:
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

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
             f'y2="{height - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
             f'stroke="black"/>']
    for lab, v in ((f"{x0:.3g}", x0), (f"{x1:.3g}", x1)):
        parts.append(f'<text x="{sx(v):.1f}" y="{height - pad + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{lab}</text>')
    for lab, v in ((f"{y0:.3g}", y0), (f"{y1:.3g}", y1)):
        parts.append(f'<text x="{pad - 6}" y="{sy(v) + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{lab}</text>')
    px = sx(xv).tolist()
    for i, (curve, label) in enumerate(zip(curves, labels)):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(map("{:.2f},{:.2f}".format, px, sy(curve).tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.2"/>')
        parts.append(f'<text x="{width - pad - 150}" y="{pad + 16 * i + 12}" '
                     f'font-family="sans-serif" font-size="12" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_outputs(res: IridResult, out_dir: Union[str, Path],
                  svg: bool = True) -> List[Path]:
    """Write impulse.csv, freq.csv, coeffs.json, summary.txt and (unless
    disabled) impulse.svg/freq.svg into ``out_dir``, created if needed;
    returns the paths in that order.  Raises ParamError for an empty
    ``out_dir``, and the OSError, which names the path, of a failed
    mkdir or write."""
    if not str(out_dir):
        raise ParamError("empty output directory path")
    coeffs = {
        "discrete": {
            "ts": res.gd.ts,
            "num": res.gd.num.tolist(),
            "den": res.gd.den.tolist(),
        },
        "continuous": {
            "num": res.gc.num.tolist(),
            "den": res.gc.den.tolist(),
        },
        "stable_discrete": res.stable,
        "metrics": asdict(res.metrics),
    }
    h = [res.h_ref.values, res.h_d.values, res.h_c.values]
    db = [f.magnitude_db() for f in (res.f_ref, res.f_d, res.f_c)]
    texts = {
        "impulse.csv": _csv("t,h_cfoi,h_discrete,h_continuous",
                            [res.h_ref.times, *h]),
        "freq.csv": _csv("omega_rad_s,mag_db_cfoi,phase_deg_cfoi,"
                         "mag_db_discrete,phase_deg_discrete,"
                         "mag_db_continuous,phase_deg_continuous",
                         [res.f_ref.grid.omegas,
                          db[0], res.f_ref.phase_deg(),
                          db[1], res.f_d.phase_deg(),
                          db[2], res.f_c.phase_deg()]),
        "coeffs.json": json.dumps(coeffs, indent=2) + "\n",
        "summary.txt": format_summary(res) + "\n",
    }
    if svg:
        # h_ref is the numerical inversion, f_ref the closed form
        models = ["discrete", "continuous"]
        texts["impulse.svg"] = _svg_chart(res.h_ref.times, h,
                                          ["reference (NILT)", *models],
                                          "impulse responses")
        texts["freq.svg"] = _svg_chart(res.f_ref.grid.omegas, db,
                                       ["exact", *models],
                                       "magnitude (dB) vs log10 omega",
                                       logx=True)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in texts]
    for path, text in zip(paths, texts.values()):
        path.write_text(text, newline="\n")
    return paths


def format_summary(res: IridResult) -> str:
    """The human-readable report: each model's impulse scores against
    the NILT reference ``h_ref`` and its frequency scores against the
    exact G(j*omega)."""
    p = res.request.params
    lines = [
        "impulse-response-invariant discretization summary",
        f"  order: {p.lam:g} {p.mu:+g}j   wgc: {p.wgc:g} rad/s",
        f"  window: tm={res.request.tm:g} s   samples: {res.request.m}"
        f"   dt={res.h_ref.dt:.6g} s   model order: {res.request.norder}",
        f"  band: [{res.f_ref.grid.omegas[0]:.6g}, "
        f"{res.f_ref.grid.omegas[-1]:.6g}] rad/s"
        f" ({len(res.f_ref.grid)} points)",
        f"  discrete model stable: {res.stable}",
    ]
    for name, e in (("discrete", res.metrics.discrete),
                    ("continuous", res.metrics.continuous)):
        lines += [
            f"  {name} model:",
            f"    impulse vs NILT reference   rel L2: "
            f"{e.impulse_rel_l2:.4e}   max abs: {e.impulse_max_abs:.4e}",
            f"    frequency vs exact G(jw)    mag max err: "
            f"{e.mag_max_err_db:.3f} dB   phase max err: "
            f"{e.phase_max_err_deg:.3f} deg",
        ]
    return "\n".join(lines)
