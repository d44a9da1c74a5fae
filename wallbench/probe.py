"""Samples how fast one CPU runs Python right now.

Usage: ``python3 wallbench/probe.py``.  The probe times a fixed
pure-Python loop in CPU time every :data:`INTERVAL_S` seconds, until its
standard input closes; then it prints the samples as one JSON list of
``[perf_counter, seconds]`` pairs.  See :mod:`measure` for why.
"""

from __future__ import annotations

import json
import select
import sys
import time

INTERVAL_S = 0.05
LOOPS = 12_000


def kernel() -> int:
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return total


def main() -> int:
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        started = time.thread_time()
        kernel()
        samples.append([time.perf_counter(), time.thread_time() - started])
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
