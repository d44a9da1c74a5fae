"""Statistics and process measurements shared by the workloads."""

from __future__ import annotations

import bisect
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: a reported percentile must leave at least this many samples beyond it
MIN_TAIL_SAMPLES = 10


def percentile(samples: list[float], p: int) -> float:
    """The ``p``-th percentile of ``samples`` (1 <= p <= 99).

    Refuses a percentile with fewer than :data:`MIN_TAIL_SAMPLES` samples
    beyond it: p90 needs 100 samples, p99 needs 1000.
    """
    if not 1 <= p <= 99:
        raise ValueError(f"percentile {p} is outside 1..99")
    beyond = len(samples) * (100 - p) / 100
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{p} of {len(samples)} samples leaves {beyond:g} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are needed"
        )
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def latency_metrics(units: list, slowness, percentiles: tuple[int, ...]) -> dict:
    """Unit latency percentiles in ms from ``[start, seconds]`` pairs.

    Each unit's time is divided by ``slowness`` over its own interval: the
    machine's speed drifts within a run, and a short unit feels the speed of
    its moment, not the run's average.
    """
    latencies_ms = [
        seconds * 1e3 / slowness(start, start + seconds) for start, seconds in units
    ]
    metrics = {"latency_p50_ms": statistics.median(latencies_ms)}
    for p in percentiles:
        metrics[f"latency_p{p}_ms"] = percentile(latencies_ms, p)
    return metrics


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing was counted."""
    return part / whole if whole else 0.0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- machine speed -------------------------------------------------------------
#
# The virtual CPUs this benchmark was built on switch between a fast and a
# slow mode for seconds at a time; the same work then takes up to half again
# as long, in CPU time as in wall time.  A benchmark run keeps every process
# it starts on one CPU (which also keeps the server's and the load
# generator's wake-ups off the virtual machine's cross-CPU interrupts), and a
# probe process on that CPU samples how fast it runs a fixed loop.  Each
# measured time is divided by the *slowness* over its interval: the probe's
# mean loop time over the loop time of the reference machine's fast mode,
# to the workload's power in :data:`WORK_EXPONENTS`.  Times are therefore
# reported in seconds of that reference machine.

#: probe loop CPU time in the fast mode of the reference machine
#: (a 2-vCPU virtual machine at 2.0 GHz, CPython 3.11)
REFERENCE_PROBE_S = 1.0e-3
#: The probe loop stays in the L1 cache and feels only the contention for
#: execution units; the workloads also feel it in the caches and the
#: kernel, so in a slow period their times grow faster than the loop's, each
#: by its own power.  ``serve_hot`` spends most of its time in socket system
#: calls and context switches: over 240 half-second windows of six runs on
#: the reference machine, log request rate fell with log probe time at a
#: slope of 1.6 to 1.7 (correlation -0.93), and 1.75 gave the smallest
#: run-to-run spread over twelve runs.  Over twelve runs each of
#: ``serve_cold`` and ``sweep``, no power from 1.25 to 1.75 was clearly best,
#: and they keep 1.5 (the raw times spread two to four times as much).
#: ``fuzz`` was not re-fitted.
WORK_EXPONENTS = {"serve_cold": 1.5, "serve_hot": 1.75, "fuzz": 1.5, "sweep": 1.5}


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts later, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Probe:
    """The probe process of :mod:`probe`, on the caller's CPU."""

    def __init__(self, env: dict[str, str], exponent: float) -> None:
        self.exponent = exponent
        #: sample times (``perf_counter``) and loop CPU times, in time order
        self.times: list[float] = []
        self.loop_s: list[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py"))],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def close(self) -> None:
        """Stop the probe and collect its samples."""
        try:
            out, _ = self.proc.communicate(b"", timeout=30)
            samples = json.loads(out or b"[]")
            self.times = [t for t, _ in samples]
            self.loop_s = [dt for _, dt in samples]
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def slowness(self, start: float, end: float) -> float:
        """Slowness over [start, end]; 1.0 is the reference machine."""
        times = self.times
        first = bisect.bisect_left(times, start)
        last = bisect.bisect_right(times, end)
        if first < last:
            loop_s = statistics.fmean(self.loop_s[first:last])
        else:  # an interval shorter than the probe period: the nearest sample
            near = [i for i in (first - 1, first) if 0 <= i < len(times)]
            loop_s = self.loop_s[min(near, key=lambda i: abs(times[i] - end))]
        return (loop_s / REFERENCE_PROBE_S) ** self.exponent
