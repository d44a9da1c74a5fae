"""The in-process workloads, ``fuzz`` and ``sweep``, in a worker process.

Worker usage: ``python3 wallbench/inproc.py {fuzz|sweep} SEED SECONDS TRACE``
with ``src`` on ``PYTHONPATH``.  The worker imports what its workload
needs, prints ``ready``, then reads one line from standard input: ``exit``
ends it (a set-up measurement), ``go`` runs the workload and prints one
``RESULT <json>`` line.  :func:`run` is the benchmark's side of this.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import peak_rss_mb, ratio

BENCH = Path(__file__).resolve().parent

#: exact outputs of ``fig10_gemmini.run()`` and ``fig11_opengemm.run()`` at
#: their default sizes; any change to the simulated model shows here
SIM_EXPECTED = {
    "sim_speedup_gemmini": 1.240867108131048,
    "sim_speedup_opengemm": 1.9755433496352917,
    "sim.config_instrs": 303330,
    "sim.config_bytes": 661920,
    "sim.launches": 26226,
}
#: paper programs per sweep pass: Fig. 10 (5 sizes x 2) + Fig. 11 (5 x 4)
SWEEP_PROGRAMS = 30
#: an untraced phase also runs until it has this many units, enough for a p90
MIN_UNITS = 100
LAUNCHES = 3
START_TIMEOUT = 120.0


class Phase:
    """Unit start times and latencies, failures and wall time of one
    measured phase."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.started = self.ended = 0.0
        self.extra: dict[str, list] = {}

    def finish(self, started: float) -> "Phase":
        self.started, self.ended = started, time.perf_counter()
        return self

    @property
    def elapsed(self) -> float:
        return self.ended - self.started

    @property
    def window(self) -> tuple[float, float]:
        return (self.started, self.ended)


class FuzzWorkload:
    """``repro.testing.fuzz.fuzz`` one program at a time.

    ``fuzz(seed, iterations=1, backends=(b,), start_iteration=i)`` generates
    exactly the program that iteration ``i`` of a full run over every
    backend generates for ``b``, so the phase walks the seed's program
    stream in order while timing each program to its verdict.
    """

    def __init__(self, seed: int) -> None:
        from repro.testing.fuzz import fuzz
        from repro.testing.generator import PROFILES

        self.fuzz = fuzz
        self.backends = sorted(PROFILES)
        self.seed = seed
        self.iteration = 0

    def phase(self, seconds: float, min_units: int) -> Phase:
        phase = Phase()
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline or phase.attempted < min_units:
            for backend in self.backends:
                begin = time.perf_counter()
                report = self.fuzz(
                    seed=self.seed,
                    iterations=1,
                    backends=(backend,),
                    start_iteration=self.iteration,
                    corpus_dir=None,
                    shrink=False,
                    engine="trace",
                )
                phase.starts.append(begin)
                phase.latencies.append(time.perf_counter() - begin)
                phase.attempted += 1
                if report.programs_run != 1:
                    phase.failures.append(f"fuzz {backend}: program not run")
                for finding in report.failures:
                    failure = finding.failure
                    phase.failures.append(
                        f"fuzz {backend}: {failure.oracle} finding in pipeline "
                        f"{failure.pipeline} (iteration {self.iteration})"
                    )
            self.iteration += 1
        return phase.finish(started)


class SweepWorkload:
    """Full passes of ``fig10_gemmini.run()`` + ``fig11_opengemm.run()``.

    The unit of latency is one paper program: the time from the previous
    program's end (or the pass start) to the end of its ``run_workload``.
    """

    def __init__(self, seed: int) -> None:
        import functools

        from repro.experiments import fig10_gemmini, fig11_opengemm

        from tracer import rebind

        del seed  # the paper's sweep has no random inputs
        self.fig10, self.fig11 = fig10_gemmini, fig11_opengemm
        self.marks: list[float] = []

        def mark(fn):
            @functools.wraps(fn)
            def run_workload(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.marks.append(time.perf_counter())

            return run_workload

        rebind("repro.experiments.common", "run_workload", mark)

    def values(self, fig10, fig11) -> dict:
        runs = [run for row in fig10.rows for run in (row.baseline, row.optimized)]
        runs += [run for row in fig11.rows for run in row.runs.values()]
        return {
            "sim_speedup_gemmini": fig10.geomean_uplift,
            "sim_speedup_opengemm": fig11.geomean_speedup(),
            "sim.config_instrs": sum(
                r.metrics.setup_instrs + r.metrics.calc_instrs for r in runs
            ),
            "sim.config_bytes": sum(r.metrics.config_bytes for r in runs),
            "sim.launches": sum(r.metrics.launch_count for r in runs),
            "correct_products": all(r.correct for r in runs),
        }

    def phase(self, seconds: float, min_units: int) -> Phase:
        phase = Phase()
        phase.extra = {"sweep_s": [], "values": []}
        started = time.perf_counter()
        while time.perf_counter() < started + seconds or phase.attempted < min_units:
            begin = time.perf_counter()
            self.marks = [begin]
            phase.attempted += SWEEP_PROGRAMS
            try:
                values = self.values(self.fig10.run(), self.fig11.run())
            except AssertionError as error:  # a figure's numpy product check
                phase.failures += [f"sweep: {error}"] * SWEEP_PROGRAMS
                continue
            phase.extra["sweep_s"].append(time.perf_counter() - begin)
            phase.extra["values"].append(values)
            phase.starts += self.marks[:-1]
            phase.latencies += [b - a for a, b in zip(self.marks, self.marks[1:])]
            wrong = [k for k, v in SIM_EXPECTED.items() if values[k] != v]
            if not values["correct_products"]:
                wrong.append("numpy product")
            if len(self.marks) != SWEEP_PROGRAMS + 1:
                wrong.append(f"{len(self.marks) - 1} programs per pass")
            phase.failures += [f"sweep: wrong {', '.join(wrong)}"] * (
                SWEEP_PROGRAMS if wrong else 0
            )
        return phase.finish(started)


WORKLOADS = {"fuzz": FuzzWorkload, "sweep": SweepWorkload}


def _e2e(phase: Phase) -> dict:
    passed = phase.attempted - len(phase.failures)
    e2e = {
        "throughput_per_s": passed / phase.elapsed,
        "peak_rss_mb": peak_rss_mb(os.getpid()),
    }
    if phase.extra.get("sweep_s"):
        e2e["sweep_s"] = statistics.median(phase.extra["sweep_s"])
        last = phase.extra["values"][-1]
        e2e["sim_speedup_gemmini"] = last["sim_speedup_gemmini"]
        e2e["sim_speedup_opengemm"] = last["sim_speedup_opengemm"]
    return e2e


def worker(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name](seed)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return {}
    min_units = 1 if trace else MIN_UNITS
    phases = [workload.phase(seconds, min_units)]
    result: dict = {}
    if trace:
        from tracer import Tracer, count_cache_lookups, install

        tracer = Tracer()
        install(tracer)
        count_cache_lookups(tracer)
        tracer.start()
        phases.append(workload.phase(seconds, min_units))
        tracer.stop()
        result["trace"] = _trace(tracer.totals(), phases[1], phases[0])
    else:
        result["e2e"] = _e2e(phases[0])
        result["window"] = phases[0].window
        result["units"] = list(zip(phases[0].starts, phases[0].latencies))
    result["attempted"] = sum(p.attempted for p in phases)
    result["failures"] = [f for p in phases for f in p.failures]
    result["failed"] = min(result["attempted"], len(result["failures"]))
    return result


def _trace(totals: dict, phase: Phase, untraced: Phase) -> dict:
    layers = totals["layers"]
    units = max(1, phase.attempted)

    def hit_ratio(cache: str) -> float:
        hits = layers.pop(f"{cache}.hits", [0, 0])[1]
        misses = layers.pop(f"{cache}.misses", [0, 0])[1]
        return ratio(hits, hits + misses)

    counts = {
        "engine.trace_cache_hit_ratio": hit_ratio("engine"),
        "analysis.cache_hit_ratio": hit_ratio("analysis"),
        "trace.uncovered_share": 1 - totals["root_ns"] / 1e9 / phase.elapsed,
    }
    if phase.extra.get("values"):
        values = phase.extra["values"][-1]
        for key in ("sim.config_instrs", "sim.config_bytes", "sim.launches"):
            counts[key] = values[key]
    return {
        "layers": layers,
        "units": units,
        "counts": counts,
        "phases": [
            {"unit_s": p.elapsed / max(1, p.attempted), "window": p.window}
            for p in (untraced, phase)
        ],
    }


# -- the benchmark's side ---------------------------------------------------------


def _launch(name: str, seed: int, seconds: float, trace: bool, env: dict):
    """Start a worker; returns it and its set-up time (launch until
    ``ready``) with its interval."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "inproc.py"), name, str(seed), str(seconds),
         str(int(trace))],
        cwd=BENCH.parent,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], START_TIMEOUT)
        line = proc.stdout.readline() if ready else b""
        if line.strip() != b"ready":
            raise RuntimeError(f"{name} worker did not start: {line!r}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    ended = time.perf_counter()
    return proc, (ended - started, (started, ended))


def run(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """Run ``name`` in a fresh worker; untraced runs launch it three times
    for the set-up time."""
    setups = []
    for n in range(1 if trace else LAUNCHES):
        proc, setup = _launch(name, seed, seconds, trace, env)
        setups.append(setup)
        try:
            last = trace or n == LAUNCHES - 1
            out, _ = proc.communicate(b"go\n" if last else b"exit\n", timeout=170)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"{name} worker exited with {proc.returncode}")
    line = next(x for x in out.decode().splitlines() if x.startswith("RESULT "))
    result = json.loads(line[len("RESULT "):])
    if not trace:
        result["setups"] = setups
    return result


if __name__ == "__main__":
    name, seed, seconds, trace = sys.argv[1:5]
    outcome = worker(name, int(seed), float(seconds), trace == "1")
    if outcome:
        print("RESULT " + json.dumps(outcome), flush=True)
