"""The benchmark's layer tracer finds its entry points by module-level
name; renaming or removing one silently zeroes a per-layer metric.  The
tracer is loaded by path (it imports only the standard library at module
level) so its tables stay the single list of names."""

import importlib.util
from pathlib import Path

import pytest

import irid.cli
import irid.pipeline

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# COUNTED["poly_eval"] is left out: irid.pipeline has no such name and
# the tracer skips it
@pytest.mark.parametrize("name", [*load_tracer().SPANNED, "nilt",
                                  "cfoi_transfer"])
def test_pipeline_names(name):
    assert callable(getattr(irid.pipeline, name, None))


@pytest.mark.parametrize("name", ["irid_fcoi", "write_outputs"])
def test_cli_names(name):
    assert callable(getattr(irid.cli, name, None))
