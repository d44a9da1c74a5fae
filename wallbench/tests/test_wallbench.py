"""Tests of the benchmark's own code.

Run with ``python3 -m pytest wallbench/tests`` from the repository root.
The traced runs take about a minute in total.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import inproc
import run as bench
import serving
from measure import percentile
from tracer import LAYERS, TARGETS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

#: layers that do work on each workload (WORKLOADS.md, prediction table)
WORKING_LAYERS = {
    "serve_cold": (
        "ir.tokenize", "ir.parse", "ir.verify", "serve.protocol", "serve.service",
        "passes.trace-states", "passes.dedup", "passes.overlap", "passes.cleanup",
        "ir.print", "engine.fingerprint", "engine.trace_compile", "engine.execute",
        "sim.device", "analysis.cost", "analysis.lint",
    ),
    "serve_hot": ("serve.protocol", "serve.service"),
    "fuzz": (
        "ir.verify", "ir.clone", "ir.print", "passes.trace-states", "passes.dedup",
        "passes.overlap", "passes.cleanup", "passes.licm", "passes.other",
        "engine.trace_compile", "engine.execute", "interp.run", "sim.device",
        "analysis.cost", "analysis.compare_sim", "analysis.lint",
        "testing.generate", "testing.oracles",
    ),
    "sweep": (
        "ir.verify", "ir.clone", "passes.trace-states", "passes.dedup",
        "passes.overlap", "passes.cleanup", "passes.licm", "interp.run",
        "sim.device", "workloads.build", "experiments.run",
    ),
}


def _run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    runs = {}

    def get(workload: str) -> dict:
        if workload not in runs:
            runs[workload] = _run(
                "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"
            )
        return runs[workload]

    return get


# -- output checks ----------------------------------------------------------------


def _hot_items():
    items = serving.hot_pool()
    for item in items:
        serving.prepare(item)
    return {item.op: item for item in items}


def test_checker_flags_one_corrupted_result_field():
    from repro.serve import CompileService

    service = CompileService()
    for op, item in _hot_items().items():
        response = service.handle({"id": 1, **item.fields()})
        assert serving.check(item, response) is None, op
        result = response["result"]
        field = {
            "simulate": "total_cycles",
            "cost": "table",
            "lint": "warnings",
            "compile": "ops",
        }[op]
        result[field] = result[field] + ("x" if isinstance(result[field], str) else 1)
        assert serving.check(item, response) is not None, op


def test_checker_flags_a_miscompiled_module():
    from repro.serve import CompileService

    item = _hot_items()["compile"]
    response = CompileService().handle({"id": 1, **item.fields()})
    text = response["result"]["text"]
    # Drop one launch/await pair: the text still parses and verifies.
    lines = text.splitlines()
    launch = next(i for i, line in enumerate(lines) if "accfg.launch" in line)
    token = lines[launch].split("=")[0].strip()
    wait = next(i for i, line in enumerate(lines) if f"accfg.await {token}" in line)
    del lines[wait], lines[launch]
    response["result"]["text"] = "\n".join(lines)
    assert serving.check(item, response) is not None


def test_checker_flags_error_responses():
    item = _hot_items()["simulate"]
    response = {"id": 1, "ok": False, "error": {"type": "circuit", "message": ""}}
    assert serving.check(item, response) == "error response (circuit)"


# -- percentiles -------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1000)), 99) == pytest.approx(989.01)


# -- tracing -----------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKING_LAYERS))
def test_traced_run_records_every_working_layer(traced, workload):
    result = traced(workload)
    assert result["correct"], result
    metrics = result["metrics"]
    assert set(metrics) == set(bench.layer_units())
    idle = [
        layer for layer in WORKING_LAYERS[workload]
        if metrics[f"{layer}.calls"]["value"] <= 0
        or metrics[f"{layer}.self_ms"]["value"] <= 0
    ]
    assert not idle, f"{workload}: no calls recorded in {idle}"
    assert metrics["trace.overhead"]["value"] > 0
    assert 0 <= metrics["trace.uncovered_share"]["value"] < 1


def test_serve_hot_is_served_from_the_outcome_cache(traced):
    metrics = traced("serve_hot")["metrics"]
    assert metrics["serve.outcome_hit_ratio"]["value"] == 1.0
    assert metrics["ir.parse.calls"]["value"] == 0
    assert metrics["serve.transport_ms"]["value"] > 0


def test_every_layer_has_a_metric_in_the_benchmark_file():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == list(bench.layer_units())
    assert [m["name"] for m in declared["end_to_end"]] == list(bench.E2E_UNITS)
    assert len(LAYERS) == len(set(LAYERS))
    assert {layer for layer, _, _ in TARGETS} <= set(LAYERS)


# -- the paper sweep ---------------------------------------------------------------


def _sweep_values() -> dict:
    """One sweep pass in a fresh process."""
    code = (
        "import json, inproc; w = inproc.SweepWorkload(0); p = w.phase(0, 1); "
        "print(json.dumps(p.extra['values'][0]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=BENCH,
        env=serving.child_env(),
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout)


def test_two_runs_give_identical_sim_values():
    first, second = _sweep_values(), _sweep_values()
    assert first == second
    for key, expected in inproc.SIM_EXPECTED.items():
        assert first[key] == expected, key


def test_sim_values_are_what_the_figures_report(traced):
    from repro.experiments import fig10_gemmini, fig11_opengemm

    metrics = traced("sweep")["metrics"]
    for key in ("sim.config_instrs", "sim.config_bytes", "sim.launches"):
        assert metrics[key]["value"] == inproc.SIM_EXPECTED[key]
    assert fig10_gemmini.run().geomean_uplift == inproc.SIM_EXPECTED[
        "sim_speedup_gemmini"
    ]
    assert fig11_opengemm.run().geomean_speedup() == inproc.SIM_EXPECTED[
        "sim_speedup_opengemm"
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "wallbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "fuzz", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
