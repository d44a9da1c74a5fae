"""The repo benchmark: one workload, checked outputs, end-to-end or per-layer.

Usage::

    python3 wallbench/run.py --workload serve_cold --seed 0 --seconds 10 --trace 0

Workloads (see ``WORKLOADS.md`` for why each exists and what it predicts):
``serve_cold``, ``serve_hot``, ``fuzz`` and ``sweep``; ``BENCHMARK.json``
lists all but ``fuzz``, which the program fails.  With ``--trace 0``
the last line of standard output is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
The lines before it are the same numbers for people, plus the metrics a
workload has that the JSON line does not carry, and every failed check.
Run it from the root of a checkout; the program under test is ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: end-to-end metrics every workload reports with ``--trace 0``
E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
#: end-to-end metrics only some workloads have; printed, not in the JSON line
EXTRA_UNITS = {
    "latency_p99_ms": "ms",
    "sweep_s": "s",
    "sim_speedup_gemmini": "x",
    "sim_speedup_opengemm": "x",
    "failed_ratio": "ratio",
}
#: per-layer metrics besides ``<layer>.self_ms`` and ``<layer>.calls``
COUNT_UNITS = {
    "serve.transport_ms": "ms",
    "serve.outcome_hit_ratio": "ratio",
    "serve.module_hit_ratio": "ratio",
    "serve.coalesced_ratio": "ratio",
    "engine.trace_cache_hit_ratio": "ratio",
    "analysis.cache_hit_ratio": "ratio",
    "serve.admission_rejected": "count",
    "serve.circuit_rejected": "count",
    "serve.deadline_expired": "count",
    "serve.engine_fallbacks": "count",
    "sim.config_instrs": "count",
    "sim.config_bytes": "B",
    "sim.launches": "count",
    "trace.overhead": "x",
    "trace.uncovered_share": "ratio",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    from tracer import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.calls"] = "count"
    units.update(COUNT_UNITS)
    return units


#: the highest unit-latency percentiles each workload reports (p50 always);
#: each keeps at least 10 samples beyond it
PERCENTILES = {"serve_hot": (90, 99)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, env) -> dict:
    import inproc
    import serving

    if name == "serve_cold":
        return serving.run_cold(seed, seconds, trace)
    if name == "serve_hot":
        return serving.run_hot(seed, seconds, trace)
    return inproc.run(name, seed, seconds, trace, env)


def end_to_end(name: str, result: dict, probe) -> dict[str, float]:
    """The untraced run's metrics, times in reference-machine seconds."""
    from measure import latency_metrics

    values = dict(result["e2e"])
    speed = probe.slowness(*result["window"])
    values["throughput_per_s"] *= speed
    if "sweep_s" in values:
        values["sweep_s"] /= speed
    values.update(
        latency_metrics(result["units"], probe.slowness, PERCENTILES.get(name, (90,)))
    )
    values["setup_s"] = statistics.median(
        seconds / probe.slowness(*window) for seconds, window in result["setups"]
    )
    values["failed_ratio"] = result["failed"] / result["attempted"]
    values["slowness"] = speed
    return values


def layer_metrics(trace: dict, probe) -> dict[str, float]:
    """Per-unit self time and calls per layer, plus the counts and ratios."""
    untraced, traced = (
        (phase["unit_s"], probe.slowness(*phase["window"])) for phase in trace["phases"]
    )
    units = trace["units"]
    values = {name: 0.0 for name in layer_units()}
    for layer, (self_ns, calls) in trace["layers"].items():
        values[f"{layer}.self_ms"] = self_ns / 1e6 / units / traced[1]
        values[f"{layer}.calls"] = calls / units
    values.update(trace["counts"])
    if "transport_ns" in trace:
        values["serve.transport_ms"] = trace["transport_ns"] / 1e6 / units / traced[1]
    values["trace.overhead"] = (traced[0] / traced[1]) / (untraced[0] / untraced[1])
    return values


def report(name: str, result: dict, trace: bool, probe) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    attempted, failed = result["attempted"], result["failed"]
    if trace:
        values = layer_metrics(result["trace"], probe)
        units = layer_units()
    else:
        values = end_to_end(name, result, probe)
        units = {**E2E_UNITS, **EXTRA_UNITS}
    print(f"workload {name}: {attempted} units attempted, {failed} failed")
    if not trace:
        print(f"  machine slowness {values['slowness']:.4f} (1 = reference)")
    for metric, unit in units.items():
        if metric in values:
            print(f"  {metric:34} {values[metric]:>14.6g} {unit}")
    for failure, count in sorted(Counter(result["failures"]).items()):
        print(f"  FAILED x{count}: {failure}")
    shown = layer_units() if trace else E2E_UNITS
    return {
        "correct": failed == 0 and not result["failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in shown.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("serve_cold", "serve_hot", "fuzz", "sweep"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'repro'}", file=sys.stderr)
        return 2
    os.environ.pop("REPRO_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))
    from measure import WORK_EXPONENTS, Probe, pin_to_one_cpu
    from serving import child_env

    env = child_env()
    pin_to_one_cpu()
    trace = bool(args.trace)
    with Probe(env, WORK_EXPONENTS[args.workload]) as probe:
        result = run_workload(args.workload, args.seed, args.seconds, trace, env)
    final = report(args.workload, result, trace, probe)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
