"""Layer spans recorded from outside the program.

The benchmark traces ``repro`` without editing it: :func:`install` replaces
each layer's public function or method with a wrapper that records a span
around the call.  A module-level function is rebound in *every* ``repro``
module that holds it, because ``from x import f`` copies the binding at
import time (patching only ``repro.ir.parser.parse_module`` would miss
``repro.serve.service.parse_module`` and the layer would silently read 0).

A span's self time is its duration minus the time its child spans cover.
A call into a layer that is already the innermost open span (recursion,
such as ``Operation.clone`` descending into regions) is not a new span.
Spans are kept per thread, in memory, and merged by :meth:`Tracer.totals`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

_now = time.perf_counter_ns

#: (layer, defining module, attribute path) for every function or method
#: the benchmark wraps.  Layer names follow ``src/repro`` module names.
TARGETS = (
    ("ir.tokenize", "repro.ir.parser", "tokenize"),
    ("ir.parse", "repro.ir.parser", "parse_module"),
    ("ir.verify", "repro.ir.verifier", "verify_operation"),
    ("ir.clone", "repro.ir.operation", "Operation.clone"),
    ("ir.print", "repro.ir.printer", "print_operation"),
    ("ir.print", "repro.ir.printer", "fingerprint_operation"),
    ("ir.print", "repro.ir.printer", "structural_key"),
    ("engine.fingerprint", "repro.engine.cache", "module_fingerprint"),
    ("engine.trace_compile", "repro.engine.cache", "TraceCache.get_or_compile"),
    ("engine.execute", "repro.engine.executor", "TraceExecutor.run"),
    ("interp.run", "repro.interp.interpreter", "Interpreter.run"),
    ("sim.device", "repro.sim.device", "AcceleratorDevice.launch"),
    ("analysis.cost", "repro.analysis.cost", "CostAnalysis.__init__"),
    ("analysis.cost", "repro.analysis.cost", "CostAnalysis.summary"),
    ("analysis.compare_sim", "repro.analysis.cost", "compare_with_simulation"),
    ("analysis.lint", "repro.analysis.lints", "run_lints"),
    ("serve.service", "repro.serve.service", "CompileService.handle"),
    ("testing.generate", "repro.testing.generator", "generate_spec"),
    ("testing.generate", "repro.testing.generator", "build_spec"),
    ("testing.oracles", "repro.testing.oracles", "check_subject"),
    ("workloads.build", "repro.workloads.matmul", "build_gemmini_matmul"),
    ("workloads.build", "repro.workloads.matmul", "build_opengemm_matmul"),
    ("experiments.run", "repro.experiments.common", "run_workload"),
)

#: passes with their own layer; every other pass is ``passes.other``
NAMED_PASSES = ("trace-states", "dedup", "overlap", "cleanup", "licm")

#: every layer a traced run reports, in the order of the prediction table
LAYERS = (
    "ir.tokenize",
    "ir.parse",
    "ir.verify",
    "serve.protocol",
    "serve.service",
    *(f"passes.{name}" for name in NAMED_PASSES),
    "passes.other",
    "ir.clone",
    "ir.print",
    "engine.fingerprint",
    "analysis.cost",
    "analysis.compare_sim",
    "analysis.lint",
    "engine.trace_compile",
    "engine.execute",
    "interp.run",
    "sim.device",
    "testing.generate",
    "testing.oracles",
    "workloads.build",
    "experiments.run",
)

#: imported before patching so every namespace that binds a target exists
PRELOAD = (
    "repro.__main__",
    "repro.analysis",
    "repro.engine",
    "repro.experiments.fig10_gemmini",
    "repro.experiments.fig11_opengemm",
    "repro.interp",
    "repro.passes",
    "repro.serve",
    "repro.testing.fuzz",
    "repro.workloads",
)


class _ThreadState:
    __slots__ = ("stack", "totals", "root_ns", "recording")

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [layer, child_ns]
        self.totals: dict[str, list[int]] = {}  # layer -> [self_ns, calls]
        self.root_ns = 0  # time covered by spans with no parent
        self.recording = False


class Tracer:
    """In-memory span recorder; records only on threads that are recording."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def start(self) -> None:
        """Record spans on the calling thread from now on."""
        self.state().recording = True

    def stop(self) -> None:
        self.state().recording = False

    def add(self, state: _ThreadState, layer: str, dt: int, child_ns: int) -> None:
        """Account one closed span of ``dt`` ns on ``state``."""
        total = state.totals.get(layer)
        if total is None:
            total = state.totals[layer] = [0, 0]
        total[0] += dt - child_ns
        total[1] += 1
        if state.stack:
            state.stack[-1][1] += dt
        else:
            state.root_ns += dt

    def wrap(self, layer: str, fn):
        """``fn`` recording one ``layer`` span per outermost call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self.state()
            stack = state.stack
            if not state.recording or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - start
                stack.pop()
                self.add(state, layer, dt, frame[1])

        return traced

    def totals(self) -> dict:
        """Merged ``{"layers": {layer: [self_ns, calls]}, "root_ns": n}``."""
        layers: dict[str, list[int]] = {}
        root_ns = 0
        with self._lock:
            states = list(self._states)
        for state in states:
            root_ns += state.root_ns
            for layer, (self_ns, calls) in state.totals.items():
                total = layers.setdefault(layer, [0, 0])
                total[0] += self_ns
                total[1] += calls
        return {"layers": layers, "root_ns": root_ns}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *prefix, attr = path.split(".")
    for part in prefix:
        owner = getattr(owner, part)
    return owner, attr


def rebind(module_name: str, path: str, make_wrapper) -> None:
    """Replace ``module_name.path`` with ``make_wrapper(current)``.

    A method is replaced on its class.  A module-level function is replaced
    in every loaded ``repro`` module that binds the same object.
    """
    owner, attr = _resolve(module_name, path)
    current = owner.__dict__[attr]
    wrapper = make_wrapper(current)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is current:
                setattr(module, key, wrapper)


def install(tracer: Tracer, request_gate=None) -> None:
    """Wrap every layer in :data:`TARGETS`, the passes and the protocol.

    ``request_gate(request) -> bool``, used inside the server, turns
    recording on for the handler thread when a decoded request is one the
    benchmark measures, and off again once its response is encoded.
    """
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    for layer, module_name, path in TARGETS:
        rebind(module_name, path, functools.partial(tracer.wrap, layer))

    from repro.passes.pass_manager import ModulePass

    classes = [ModulePass]
    for cls in classes:
        classes.extend(cls.__subclasses__())
        if "apply" in cls.__dict__ and cls is not ModulePass:
            name = cls.name.removeprefix("accfg-")
            name = name if name in NAMED_PASSES else "other"
            cls.apply = tracer.wrap(f"passes.{name}", cls.apply)

    if request_gate is None:
        rebind("repro.serve.protocol", "decode_request",
               functools.partial(tracer.wrap, "serve.protocol"))
        rebind("repro.serve.protocol", "encode",
               functools.partial(tracer.wrap, "serve.protocol"))
        return

    def gated_decode(fn):
        @functools.wraps(fn)
        def decode(line):
            start = _now()
            request = fn(line)
            dt = _now() - start
            state = tracer.state()
            state.recording = bool(request_gate(request))
            if state.recording:
                tracer.add(state, "serve.protocol", dt, 0)
            return request

        return decode

    def gated_encode(fn):
        traced = tracer.wrap("serve.protocol", fn)

        @functools.wraps(fn)
        def encode(obj):
            try:
                return traced(obj)
            finally:
                tracer.state().recording = False

        return encode

    rebind("repro.serve.protocol", "decode_request", gated_decode)
    rebind("repro.serve.protocol", "encode", gated_encode)


def count_cache_lookups(tracer: Tracer) -> None:
    """Count hits and misses of the analysis and trace caches while recording.

    Each :class:`AnalysisManager` keeps its own counters and the fuzz
    oracles create their own managers, so the in-process workloads count
    at the lookup instead: ``<cache>.hits`` / ``<cache>.misses`` pseudo-layers
    whose ``calls`` are the counts.
    """

    def counting(name: str):
        def make(fn):
            @functools.wraps(fn)
            def lookup(self, *args, **kwargs):
                hits = self.hits
                try:
                    return fn(self, *args, **kwargs)
                finally:
                    state = tracer.state()
                    if state.recording:
                        key = f"{name}.hits" if self.hits > hits else f"{name}.misses"
                        state.totals.setdefault(key, [0, 0])[1] += 1

            return lookup

        return make

    rebind("repro.analysis.manager", "AnalysisManager.get", counting("analysis"))
    rebind("repro.engine.cache", "TraceCache.get_or_compile", counting("engine"))
