"""Tests of the benchmark itself, on small slices of its workloads.

Run from the repository root:  python3 -m pytest perfbench/tests -q

Count values are compared between runs, never pinned: changes to the
numerics are meant to move them.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)
run.import_irid()

COUNTS = ("cfoi.transfer.calls", "nilt.calls", "nilt.points_per_sample",
          "lti.poly_eval.calls", "sysid.lfilter.calls",
          "pipeline.bytes_written")
SLICE = {"lam": (0.5, 1.95), "mu": (-0.95,), "wgc": (1.0,), "tm": (2.0,),
         "m": (256,), "norder": (2, 8)}


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == run.E2E_UNITS
    assert _declared("per_layer") == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"),
                                         (True, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    record = run.run("showcase_m256", seed=3, seconds=0.0, trace=trace)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared(kind)
    assert all(isinstance(v["value"], float) for v in
               result["metrics"].values())


def test_traced_runs_repeat_counts_and_bits():
    first = run.showcase(256)(1, 0.0, True)
    second = run.showcase(256)(2, 0.0, True)
    # a traced result that differs in any bit from the untraced one fails
    assert first["failed"] == second["failed"] == 0
    assert {k: first["layers"][k] for k in COUNTS} == \
        {k: second["layers"][k] for k in COUNTS}
    assert first["layers"]["cfoi.transfer.calls"] > 0
    assert first["layers"]["sysid.lfilter.calls"] > 0


def test_traced_cli_counts_outputs(tmp_path):
    run.import_irid()
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(spans)]
        + run.CLI_FLAGS + ["--samples", "256", "--no-svg",
                           "--out-dir", str(tmp_path / "out")],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    tracer = run.Tracer()
    tracer.merge(json.loads(spans.read_text()))
    layers = tracer.layer_metrics()
    written = sum(p.stat().st_size for p in (tmp_path / "out").iterdir())
    assert layers["pipeline.bytes_written"] == written
    assert layers["pipeline.write_outputs.s"] > 0
    assert layers["nilt.calls"] > 0


def test_quality_metrics_do_not_depend_on_the_seed():
    a = run.domain_sweep(1, 0.0, False, lattice=SLICE)
    b = run.domain_sweep(7, 0.0, False, lattice=SLICE)
    assert a["attempted"] == b["attempted"] == 4
    assert a["good_fit_frac"] == b["good_fit_frac"]
    assert a["oracle_rel_l2_max"] == b["oracle_rel_l2_max"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "showcase_m256",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
