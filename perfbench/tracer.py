"""Layer tracing for the irid benchmark, applied from outside the package.

Calls into each module are wrapped at the names ``irid.pipeline`` and
``irid.cli`` look them up, plus ``scipy.signal.lfilter``.  Calls made once
per request or per fit iteration get a span (name, start, end, parent
span, request id).  The per-point transform callbacks that ``nilt`` makes
2m+17 times per inversion get only a call count and summed time, because
a span object per point would dominate what it measures.

Wrappers return exactly what the wrapped function returns, so a traced
run computes the same bits as an untraced one; the benchmark checks this.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# names looked up by irid.pipeline -> layer they are reported under
SPANNED = {
    "stmcb_fit": "sysid.stmcb_fit",
    "bilinear_d2c": "sysid.bilinear_d2c",
    "discrete_impulse": "lti.discrete_impulse",
    "cfoi_freq_grid": "cfoi.freq_grid",
    "discrete_freq_response": "lti.freq_response",
    "continuous_freq_response": "lti.freq_response",
    "is_stable_discrete": "lti.is_stable",
}
# per-point callbacks looked up by irid.pipeline -> layer
COUNTED = {
    "cfoi_transfer": "cfoi.transfer",
    "poly_eval": "lti.poly_eval",
}
ROOT = "pipeline.irid_fcoi"

# per-layer metric -> unit, in the order they are reported
LAYER_UNITS = {
    "cfoi.transfer.calls": "count",
    "cfoi.transfer.s": "s",
    "nilt.calls": "count",
    "nilt.points_per_sample": "points/sample",
    "nilt.self.s": "s",
    "lti.poly_eval.calls": "count",
    "lti.poly_eval.s": "s",
    "sysid.stmcb_fit.s": "s",
    "sysid.lfilter.calls": "count",
    "sysid.bilinear_d2c.s": "s",
    "lti.discrete_impulse.s": "s",
    "lti.freq_response.s": "s",
    "lti.is_stable.s": "s",
    "cfoi.freq_grid.s": "s",
    "pipeline.irid_fcoi.self.s": "s",
    "pipeline.write_outputs.s": "s",
    "pipeline.bytes_written": "bytes",
}


class Tracer:
    """Spans and counters kept in memory until :meth:`dump`."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request id]
        self.counters = defaultdict(lambda: [0, 0.0])   # name -> [calls, s]
        self.points = 0          # transform evaluations made inside nilt
        self.samples = 0         # output samples requested (sum of req.m)
        self.bytes_written = 0
        self.requests = 0
        self._stack = []

    # -- wrappers ---------------------------------------------------------

    def spanned(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.requests]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
        return wrapper

    def counted(self, name, fn):
        counter = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                counter[1] += perf_counter() - start
                counter[0] += 1
        return wrapper

    def root(self, fn):
        """Span for one irid_fcoi request; opens a new request id."""
        inner = self.spanned(ROOT, fn)

        @functools.wraps(fn)
        def wrapper(req, *args, **kwargs):
            self.requests += 1
            self.samples += req.m
            return inner(req, *args, **kwargs)
        return wrapper

    def _nilt(self, fn):
        inner = self.spanned("nilt", fn)

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def points(s):
                # array-in transforms count each point they evaluate
                self.points += getattr(s, "size", 1)
                return f(s)
            return inner(points, *args, **kwargs)
        return wrapper

    def _write_outputs(self, fn):
        inner = self.spanned("pipeline.write_outputs", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            paths = inner(*args, **kwargs)
            self.bytes_written += sum(os.path.getsize(p) for p in paths)
            return paths
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block."""
        import scipy.signal
        import irid.cli
        import irid.pipeline

        plan = [(scipy.signal, "lfilter", self.spanned("sysid.lfilter",
                                                       scipy.signal.lfilter))]
        pl = irid.pipeline
        # a name the pipeline no longer uses is skipped; its layer reads 0
        if hasattr(pl, "nilt"):
            plan.append((pl, "nilt", self._nilt(pl.nilt)))
        for attr, layer in SPANNED.items():
            if hasattr(pl, attr):
                plan.append((pl, attr, self.spanned(layer, getattr(pl, attr))))
        for attr, layer in COUNTED.items():
            if hasattr(pl, attr):
                plan.append((pl, attr, self.counted(layer, getattr(pl, attr))))
        plan.append((irid.cli, "irid_fcoi", self.root(irid.cli.irid_fcoi)))
        plan.append((irid.cli, "write_outputs",
                     self._write_outputs(irid.cli.write_outputs)))

        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in plan]
        try:
            for mod, attr, wrapped in plan:
                setattr(mod, attr, wrapped)
            yield self
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)

    # -- persistence ------------------------------------------------------

    def state(self):
        return {"spans": self.spans, "counters": dict(self.counters),
                "points": self.points, "samples": self.samples,
                "bytes_written": self.bytes_written,
                "requests": self.requests}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.state(), fh)

    def merge(self, state):
        """Add another tracer's state; its request ids are shifted past
        ours and its span parents re-indexed."""
        offset = len(self.spans)
        for name, start, end, parent, rid in state["spans"]:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1,
                               rid + self.requests])
        for name, (calls, secs) in state["counters"].items():
            self.counters[name][0] += calls
            self.counters[name][1] += secs
        self.points += state["points"]
        self.samples += state["samples"]
        self.bytes_written += state["bytes_written"]
        self.requests += state["requests"]

    # -- summary ----------------------------------------------------------

    def layer_metrics(self):
        """Per-request mean of every layer metric in LAYER_UNITS."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        cb = {name: self.counters.get(name, [0, 0.0])
              for name in ("cfoi.transfer", "lti.poly_eval")}
        n = max(self.requests, 1)
        values = {
            "cfoi.transfer.calls": cb["cfoi.transfer"][0] / n,
            "cfoi.transfer.s": cb["cfoi.transfer"][1] / n,
            "nilt.calls": calls["nilt"] / n,
            "nilt.points_per_sample": self.points / max(self.samples, 1),
            # callbacks run only inside nilt; what is left is the
            # inversion's own work (FFT, qd tail, initial-value split)
            "nilt.self.s": (own["nilt"] - cb["cfoi.transfer"][1]
                            - cb["lti.poly_eval"][1]) / n,
            "lti.poly_eval.calls": cb["lti.poly_eval"][0] / n,
            "lti.poly_eval.s": cb["lti.poly_eval"][1] / n,
            "sysid.stmcb_fit.s": total["sysid.stmcb_fit"] / n,
            "sysid.lfilter.calls": calls["sysid.lfilter"] / n,
            "sysid.bilinear_d2c.s": total["sysid.bilinear_d2c"] / n,
            "lti.discrete_impulse.s": total["lti.discrete_impulse"] / n,
            "lti.freq_response.s": total["lti.freq_response"] / n,
            "lti.is_stable.s": total["lti.is_stable"] / n,
            "cfoi.freq_grid.s": total["cfoi.freq_grid"] / n,
            "pipeline.irid_fcoi.self.s": own[ROOT] / n,
            "pipeline.write_outputs.s": total["pipeline.write_outputs"] / n,
            "pipeline.bytes_written": self.bytes_written / n,
        }
        return values
