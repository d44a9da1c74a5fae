"""The serve workloads: a ``repro serve`` process under a closed loop.

The load generator is this process: two connections, each sending its
next request only after the previous reply arrived (the service's callers,
``ReproClient``, ``repro tune`` and CI, all wait for their reply).  Every
output is checked against a reference computed off the clock by a path the
server did not take; see ``WORKLOADS.md``.
"""

from __future__ import annotations

import json
import os
import random
import select
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from launcher import MEASURED_PREFIX
from measure import peak_rss_mb, ratio

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

CONNECTIONS = 2
SERVE_OPS = ("simulate", "cost", "lint", "compile")
BUDGETS = range(2, 13)
COLD_TENANTS = 8
HOT_TENANTS = 64
MATMUL_SIZES = (16, 32, 64, 128)
#: generator programs per (profile, budget) and second of --seconds; the
#: pool is fixed for a given --seconds, so every run does the same work
COLD_PROGRAMS_PER_SECOND = 2.0
#: the cold pool always holds k = 0..3, so it keeps the dataflow tail
#: (opengemm, budget 12, k = 3 takes about 3 s in the ``full`` pipeline)
MIN_COLD_PROGRAMS = 4
HOT_BUDGETS = (3, 6)
SERVER_START_TIMEOUT = 120.0


def child_env() -> dict[str, str]:
    """The environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# -- inputs and their references ----------------------------------------------


@dataclass
class Item:
    """One (module, op) request and its off-the-clock reference."""

    label: str
    op: str
    module: str
    #: builds (unoptimized module, memory image, args, numpy check or None)
    fresh: Callable[[], tuple]
    args: list[int] | None = None
    expect: Any = None

    def fields(self) -> dict[str, Any]:
        fields: dict[str, Any] = {"op": self.op, "module": self.module}
        if self.args is not None:
            fields["args"] = self.args
        return fields


def _from_spec(spec, memory_seed: int):
    from repro.testing.generator import build_spec

    def fresh():
        built = build_spec(spec, memory_seed=memory_seed)
        return built.module, built.memory, built.args, None

    return fresh


def _from_matmul(build, size: int):
    def fresh():
        workload = build(size)
        return workload.module, workload.memory, workload.main_args, workload.check

    return fresh


def generator_programs(ks, budgets) -> list[tuple[str, int, Callable, Any]]:
    """``(label, k, fresh, built)`` for every profile x budget x k.

    Programs whose IR text repeats an earlier one are dropped, so no two
    requests can share a service cache entry.
    """
    from repro.testing.generator import PROFILES, build_spec, generate_spec

    programs, seen = [], set()
    for backend in sorted(PROFILES):
        for budget in budgets:
            for k in ks:
                program_seed = k * 31 + budget
                spec = generate_spec(
                    random.Random(program_seed), backend, max_stmts=budget
                )
                fresh = _from_spec(spec, program_seed)
                built = fresh()
                text = str(built[0])
                if text not in seen:
                    seen.add(text)
                    programs.append((f"{backend}/b{budget}/k{k}", k, fresh, built))
    return programs


def _item(label: str, op: str, fresh, built=None) -> Item:
    module, _, args, _ = built or fresh()
    return Item(
        label, op, str(module), fresh, list(args) if op == "simulate" else None
    )


def cold_pool(seconds: float) -> list[Item]:
    """Distinct modules, each under one op, plus the paper's matmuls.

    The pool depends on ``seconds`` only; the seed orders it.
    """
    from repro.workloads.matmul import build_gemmini_matmul, build_opengemm_matmul

    count = max(MIN_COLD_PROGRAMS, round(seconds * COLD_PROGRAMS_PER_SECOND))
    items = [
        _item(label, SERVE_OPS[k % len(SERVE_OPS)], fresh, built)
        for label, k, fresh, built in generator_programs(range(count), BUDGETS)
    ]
    for size in MATMUL_SIZES:
        for build in (build_gemmini_matmul, build_opengemm_matmul):
            label = f"{build.__name__}/{size}"
            items.append(_item(label, "compile", _from_matmul(build, size)))
    return items


def hot_pool() -> list[Item]:
    """A small working set: a few modules, each under every op."""
    return [
        _item(label, op, fresh, built)
        for label, _, fresh, built in generator_programs(range(1), HOT_BUDGETS)
        for op in SERVE_OPS
    ]


def _normalize(value):
    """The value as it reads after a JSON round trip."""
    return json.loads(json.dumps(value))


def simulate_result(module, args) -> dict[str, Any]:
    """A tree-interpreter run on a fresh, non-functional co-simulator."""
    from repro.interp import Interpreter
    from repro.sim import CoSimulator

    sim = CoSimulator(functional=False)
    results = Interpreter(module, sim).run("main", list(args))
    stats = sim.trace.stats(sim.cost_model)
    return {
        "results": [int(value) for value in results],
        "total_cycles": sim.total_cycles,
        "instrs": {
            "total": stats.total_instrs,
            "setup": stats.setup_instrs,
            "calc": stats.calc_instrs,
        },
        "config_bytes": stats.config_bytes,
        "launches": {
            name: device.launch_count for name, device in sim.devices.items()
        },
    }


def functional_run(module, memory, args):
    """Results, memory image and launch counts of a functional tree run."""
    from repro.interp import Interpreter
    from repro.sim import CoSimulator

    sim = CoSimulator(memory=memory)
    results = Interpreter(module, sim).run("main", list(args))
    image = [np.array(buffer, copy=True) for buffer in memory.snapshot()]
    launches = {name: device.launch_count for name, device in sim.devices.items()}
    return [int(value) for value in results], image, launches


def _same_run(a, b) -> bool:
    return (
        a[0] == b[0]
        and len(a[1]) == len(b[1])
        and all(x.shape == y.shape and (x == y).all() for x, y in zip(a[1], b[1]))
        and a[2] == b[2]
    )


def _parsed(text: str):
    from repro.ir import parse_module, verify_operation

    module = parse_module(text, "<request>")
    verify_operation(module)
    return module


def prepare(item: Item) -> None:
    """Compute ``item.expect`` without the server (off the clock)."""
    from repro.analysis import CostAnalysis, Severity, format_cost_table, run_lints

    if item.op == "simulate":
        module, _, args, _ = item.fresh()
        item.expect = _normalize(simulate_result(module, args))
    elif item.op == "compile":
        module, memory, args, _ = item.fresh()
        item.expect = functional_run(module, memory, args)
    elif item.op == "cost":
        table = format_cost_table(CostAnalysis(_parsed(item.module)))
        item.expect = {"table": table}
    else:
        diagnostics = run_lints(_parsed(item.module))
        item.expect = _normalize(
            {
                "diagnostics": [d.to_dict() for d in diagnostics],
                "errors": sum(d.severity is Severity.ERROR for d in diagnostics),
                "warnings": sum(
                    d.severity is Severity.WARNING for d in diagnostics
                ),
            }
        )


def check(item: Item, response: Any) -> str | None:
    """None when ``response`` is right for ``item``, else the error type.

    Only the ``result`` payload is compared; ``meta`` never is.
    """
    if not isinstance(response, dict) or response.get("ok") is not True:
        error = response.get("error") if isinstance(response, dict) else None
        kind = error.get("type") if isinstance(error, dict) else "malformed"
        return f"error response ({kind})"
    result = response.get("result")
    if item.op != "compile":
        return None if result == item.expect else "wrong result"
    from repro.engine import module_fingerprint

    try:
        module = _parsed(result["text"])
    except Exception as error:  # noqa: BLE001 - any failure is a wrong output
        return f"compiled text does not parse and verify ({type(error).__name__})"
    if result.get("fingerprint") != module_fingerprint(module):
        return "fingerprint does not match the compiled text"
    if result.get("ops") != sum(1 for _ in module.walk()):
        return "op count does not match the compiled text"
    _, memory, args, numpy_check = item.fresh()
    if not _same_run(functional_run(module, memory, args), item.expect):
        return "compiled module diverges from the unoptimized run"
    if numpy_check is not None and not numpy_check():
        return "compiled matmul gives the wrong product"
    return None


# -- the server process ---------------------------------------------------------


class Connection:
    """One blocking JSON-lines connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def exchange(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        reply = self.reader.readline()
        if not reply.endswith(b"\n"):
            raise ConnectionError("server closed the connection mid-reply")
        return reply

    def call(self, request: dict[str, Any]) -> dict[str, Any]:
        return json.loads(self.exchange((json.dumps(request) + "\n").encode()))

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Server:
    """A server process: ``python -m repro serve``, or the traced launcher.

    ``setup`` is launch until the first ``ping`` is answered, with its
    interval (for the machine-speed probe).
    """

    def __init__(self, traced: bool) -> None:
        if traced:
            argv = [sys.executable, str(BENCH / "launcher.py")]
        else:
            argv = [sys.executable, "-m", "repro", "serve"]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv + ["--port", "0"],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        self.control: Connection | None = None
        try:
            timeout = SERVER_START_TIMEOUT
            ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
            line = self.proc.stdout.readline().decode() if ready else ""
            if "listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            self.control = Connection(self.port)
            if self.control.call({"id": "s-ping", "op": "ping"}).get("ok") is not True:
                raise RuntimeError("server did not answer ping")
        except BaseException:
            self.kill()
            raise
        ended = time.perf_counter()
        self.setup = (ended - started, (started, ended))

    def stats(self) -> dict[str, Any]:
        return self.control.call({"id": "s-stats", "op": "stats"})["result"]

    def stop(self) -> str:
        """Shut the server down cleanly; returns the rest of its stdout."""
        self.control.call({"id": "s-shutdown", "op": "shutdown"})
        self.control.close()
        self.control = None
        out, _ = self.proc.communicate(timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return out.decode()

    def kill(self) -> None:
        if self.control is not None:
            self.control.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# -- phases and workloads ------------------------------------------------------


@dataclass
class Phase:
    """What one measured phase against one server observed."""

    #: send time and latency of each measured request
    starts: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    window: tuple[float, float] = (0.0, 0.0)
    attempted: int = 0
    #: one entry per failed unit: "<workload> <op> <label>: <error type>"
    failures: list[str] = field(default_factory=list)
    stats_delta: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    trace: dict | None = None


def closed_loop(phase: Phase, server: Server, next_line, on_reply, deadline=None):
    """Drive ``CONNECTIONS`` closed loops until ``next_line(i)`` is None.

    ``on_reply(i, reply, sent, latency)`` gets each reply; latency covers
    send to full reply.  Sets the phase's elapsed time and its interval.
    """
    counter = iter(range(1 << 62))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def loop() -> None:
        conn = Connection(server.port)
        try:
            while True:
                with lock:
                    index = next(counter)
                line = next_line(index)
                if line is None:
                    return
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                sent = time.perf_counter()
                reply = conn.exchange(line)
                on_reply(index, reply, sent, time.perf_counter() - sent)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)
        finally:
            conn.close()

    threads = [threading.Thread(target=loop) for _ in range(CONNECTIONS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = time.perf_counter()
    phase.elapsed = ended - started
    phase.window = (started, ended)
    if errors:
        raise errors[0]


def _line(request_id: str, tenant: str, item: Item) -> bytes:
    payload = {"id": request_id, "tenant": tenant, **item.fields()}
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def _stats_delta(before: dict, after: dict) -> dict[str, float]:
    keys = (
        "coalesced", "outcome_hits", "module_hits", "engine_fallbacks",
        "admission_rejected", "circuit_rejected", "deadline_expired",
    )
    delta = {key: after[key] - before[key] for key in keys}
    for cache in ("trace_cache", "analyses"):
        for count in ("hits", "misses"):
            delta[f"{cache}.{count}"] = after[cache][count] - before[cache][count]
    return delta


def cold_load(items: list[Item], seed: int):
    """The measured request sequence: the seed orders the pool and assigns
    tenants; every request carries a distinct module."""
    rng = random.Random(seed)
    order = list(range(len(items)))
    rng.shuffle(order)
    tenants = [f"tenant-{rng.randrange(COLD_TENANTS)}" for _ in order]
    lines = [
        _line(f"{MEASURED_PREFIX}{i}", tenants[i], items[j])
        for i, j in enumerate(order)
    ]

    def run(phase: Phase, server: Server) -> None:
        replies: list[bytes] = [b""] * len(lines)
        phase.starts = [0.0] * len(lines)
        phase.latencies = [0.0] * len(lines)

        def on_reply(index: int, reply: bytes, sent: float, latency: float) -> None:
            replies[index] = reply
            phase.starts[index] = sent
            phase.latencies[index] = latency

        closed_loop(
            phase, server, lambda i: lines[i] if i < len(lines) else None, on_reply
        )
        phase.attempted = len(lines)
        for reply, j in zip(replies, order):
            item = items[j]
            error = check(item, json.loads(reply))
            if error is not None:
                phase.failures.append(f"serve_cold {item.op} {item.label}: {error}")

    return run


def hot_load(items: list[Item], seed: int, seconds: float):
    """Measured requests cycle through the warm set in a seeded order,
    spread over many tenants, so each one can be an outcome-cache hit."""
    rng = random.Random(seed)
    order = list(range(len(items)))
    rng.shuffle(order)
    tenants = [f"tenant-{rng.randrange(HOT_TENANTS)}" for _ in range(997)]
    bodies = [json.dumps(items[j].fields(), separators=(",", ":"))[1:] for j in order]
    #: each item's warm-up result, once it passed its check
    verified: dict[int, Any] = {}

    def warm(server: Server) -> list[str]:
        failures = []
        conn = Connection(server.port)
        try:
            for j, item in enumerate(items):
                response = json.loads(conn.exchange(_line(f"w{j}", "warm", item)))
                error = check(item, response)
                if error is None:
                    verified[j] = response["result"]
                else:
                    failures.append(
                        f"serve_hot warm-up {item.op} {item.label}: {error}"
                    )
        finally:
            conn.close()
        return failures

    def run(phase: Phase, server: Server) -> None:
        lock = threading.Lock()

        def next_line(i: int) -> bytes:
            tenant = tenants[i % len(tenants)]
            body = bodies[i % len(bodies)]
            request_id = f"{MEASURED_PREFIX}{i}"
            return f'{{"id":"{request_id}","tenant":"{tenant}",{body}\n'.encode()

        def on_reply(index: int, reply: bytes, sent: float, latency: float) -> None:
            response = json.loads(reply)
            j = order[index % len(order)]
            ok = (
                response.get("ok") is True
                and response.get("id") == f"{MEASURED_PREFIX}{index}"
                and j in verified
                and response.get("result") == verified[j]
            )
            with lock:
                phase.starts.append(sent)
                phase.latencies.append(latency)
                if not ok:
                    item = items[j]
                    error = check(item, response) or "reply differs from the warm-up"
                    phase.failures.append(f"serve_hot {item.op} {item.label}: {error}")

        closed_loop(phase, server, next_line, on_reply, time.perf_counter() + seconds)
        phase.attempted = len(phase.latencies)

    return run, warm


def run_cold(seed: int, seconds: float, trace: bool) -> dict:
    items = cold_pool(seconds)
    for item in items:
        prepare(item)
    return _serve_workload("serve_cold", cold_load(items, seed), None, trace)


def run_hot(seed: int, seconds: float, trace: bool) -> dict:
    items = hot_pool()
    for item in items:
        prepare(item)
    run, warm = hot_load(items, seed, seconds)
    return _serve_workload("serve_hot", run, warm, trace)


def _measure(server: Server, run, warm, traced: bool) -> Phase:
    phase = Phase()
    if warm is not None:
        phase.failures += warm(server)
    before = server.stats()
    run(phase, server)
    phase.stats_delta = _stats_delta(before, server.stats())
    phase.peak_rss_mb = peak_rss_mb(server.proc.pid)
    fallbacks = phase.stats_delta["engine_fallbacks"]
    phase.failures += ["engine fallback to the tree interpreter"] * fallbacks
    out = server.stop()
    if traced:
        line = next(x for x in out.splitlines() if x.startswith("TRACE "))
        phase.trace = json.loads(line[len("TRACE "):])
    return phase


def _serve_workload(name: str, run, warm, trace: bool) -> dict:
    """Untraced: three launches (set-up time), the last one measured.
    Traced: one untraced and one traced server, each measured."""
    setups = []
    phases: list[Phase] = []
    launches = (False, True) if trace else (False, False, False)
    for n, traced in enumerate(launches):
        server = Server(traced)
        try:
            setups.append(server.setup)
            if trace or n == len(launches) - 1:
                phases.append(_measure(server, run, warm, traced))
            else:
                server.stop()
        finally:
            server.kill()
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    result = {
        "attempted": attempted,
        "failed": min(attempted, len(failures)),
        "failures": failures,
    }
    if trace:
        result["trace"] = _serve_trace(phases[1], phases[0])
    else:
        result["setups"] = setups
        result["window"] = phases[-1].window
        result["e2e"] = _serve_e2e(phases[-1])
        result["units"] = list(zip(phases[-1].starts, phases[-1].latencies))
    return result


def _serve_e2e(phase: Phase) -> dict:
    passed = phase.attempted - len(phase.failures)
    return {
        "throughput_per_s": passed / phase.elapsed,
        "peak_rss_mb": phase.peak_rss_mb,
    }


def _serve_trace(phase: Phase, untraced: Phase) -> dict:
    delta = phase.stats_delta
    requests = max(1, phase.attempted)
    client_ns = sum(phase.latencies) * 1e9
    uncovered_ns = client_ns - phase.trace["root_ns"]
    counts = {
        "serve.outcome_hit_ratio": delta["outcome_hits"] / requests,
        "serve.module_hit_ratio": delta["module_hits"] / requests,
        "serve.coalesced_ratio": delta["coalesced"] / requests,
        "engine.trace_cache_hit_ratio": ratio(
            delta["trace_cache.hits"],
            delta["trace_cache.hits"] + delta["trace_cache.misses"],
        ),
        "analysis.cache_hit_ratio": ratio(
            delta["analyses.hits"], delta["analyses.hits"] + delta["analyses.misses"]
        ),
        "serve.admission_rejected": delta["admission_rejected"],
        "serve.circuit_rejected": delta["circuit_rejected"],
        "serve.deadline_expired": delta["deadline_expired"],
        "serve.engine_fallbacks": delta["engine_fallbacks"],
        "trace.uncovered_share": ratio(uncovered_ns, client_ns),
    }
    return {
        "layers": phase.trace["layers"],
        "units": requests,
        "counts": counts,
        "transport_ns": uncovered_ns,
        "phases": [
            {"unit_s": p.elapsed / max(1, p.attempted), "window": p.window}
            for p in (untraced, phase)
        ],
    }
