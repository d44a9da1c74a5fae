"""The known-fields solver: bounded work per state value, safe to share.

Its demand-driven predecessor re-derived every answer that touched a
loop-carried state, which is exponential in loop and branch nesting; these
tests pin the solver to a small constant number of equation evaluations
per state value of the module.
"""

import random
import sys
import threading
from collections import Counter

import pytest

from repro.analysis.dataflow import KnownFieldsAnalysis
from repro.dialects import accfg
from repro.ir import parse_module
from repro.passes import TraceStatesPass, pipeline_by_name
from repro.testing.generator import build_spec, generate_spec

#: evaluations one analysis may spend per state value of the module
PER_VALUE = 4


def nested_loops(depth: int) -> str:
    """``depth`` nested loops, each holding an ``scf.if`` with a setup on
    its then side, and a setup and launch in the innermost body."""
    lines = [
        "func.func @main(%c : i1, %x : i64, %y : i64) -> () {",
        "  %lb = arith.constant 0 : index",
        "  %ub = arith.constant 2 : index",
        "  %st = arith.constant 1 : index",
        '  %s0 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">',
    ]
    for level in range(depth):
        lines += [
            f"  scf.for %i{level} = %lb to %ub step %st {{",
            "    scf.if %c {",
            f'      %t{level} = accfg.setup on "toyvec" ("op" = %y : i64) : !accfg.state<"toyvec">',
            "      scf.yield",
            "    } else {",
            "      scf.yield",
            "    }",
        ]
    lines += [
        '    %s1 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">',
        "    %tok = accfg.launch %s1 : !accfg.token<\"toyvec\">",
        "    accfg.await %tok",
    ]
    lines += ["    scf.yield", "  }"] * depth
    lines += ["  func.return", "}"]
    return "\n".join(lines)


def generated(backend: str, budget: int, k: int) -> str:
    seed = k * 31 + budget
    spec = generate_spec(random.Random(seed), backend, max_stmts=budget)
    return str(build_spec(spec, memory_seed=seed).module)


def state_values(module) -> list:
    values = []
    for op in module.walk():
        values += op.results
        for region in op.regions:
            for block in region.blocks:
                values += block.args
    return [value for value in values if isinstance(value.type, accfg.StateType)]


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(generated("opengemm", 12, 3), id="opengemm-b12-k3"),
        pytest.param(nested_loops(8), id="nested-loops-8"),
    ],
)
def test_full_pipeline_evaluates_each_state_a_bounded_number_of_times(
    text, monkeypatch
):
    threaded = parse_module(text)
    TraceStatesPass().apply(threaded)
    calls: Counter[KnownFieldsAnalysis] = Counter()
    compute = KnownFieldsAnalysis._compute

    def counted(self, *args):
        calls[self] += 1
        return compute(self, *args)

    monkeypatch.setattr(KnownFieldsAnalysis, "_compute", counted)
    module = parse_module(text)
    pipeline_by_name("full").run(module)
    # State threading adds the loop-carried states the analysis walks.
    values = max(len(state_values(threaded)), len(state_values(module)))
    assert calls
    for analysis, count in calls.items():
        assert count <= PER_VALUE * values


def test_threads_sharing_one_analysis_see_only_solved_answers():
    module = parse_module(nested_loops(6))
    TraceStatesPass().apply(module)
    states = state_values(module)
    reference = KnownFieldsAnalysis("toyvec")
    expected = {state: reference.known(state) for state in states}
    wrong = []

    def query(shared, seed, start):
        order = list(states)
        random.Random(seed).shuffle(order)
        start.wait(timeout=60)
        for state in order:
            try:
                if shared.known(state) != expected[state]:
                    wrong.append(state)
            except Exception as error:  # noqa: BLE001 - the test's verdict
                wrong.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            shared = KnownFieldsAnalysis("toyvec")
            start = threading.Barrier(8)
            threads = [
                threading.Thread(target=query, args=(shared, seed, start))
                for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
