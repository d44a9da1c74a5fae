"""Property: batch execution is bit-identical to the scalar trace engine.

The standing version of the fuzzer's ``batch-vs-scalar`` oracle: every
generated program is run as a multi-lane batch — one lane replaying the
canonical arguments, one forced down the other branch of the top-level
condition, and (in the fault property) lanes carrying seeded fault
injectors.  Each lane must match an independent scalar run exactly:
results, protocol-error type *and message*, charged cycles, per-device
launch counts, and the final memory image.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    BatchExecutor,
    BatchLane,
    TraceCompileError,
    TraceExecutor,
    compile_module,
)
from repro.faults import FaultInjector, FaultRates
from repro.passes import pipeline_by_name
from repro.sim import CoSimulator
from repro.testing.generator import build, programs
from repro.testing.oracles import _batch_lane_divergences

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

RATE_MIXES = st.sampled_from(
    [
        FaultRates.uniform(0.1),
        FaultRates(state_loss=0.4),
        FaultRates(launch_reject=0.2, await_stall=0.2),
    ]
)


def scalar_run(program, pipeline, args, faults=None):
    """(results, error, sim, memory) of one independent scalar run."""
    built = build(program)
    pipeline_by_name(pipeline).run(built.module)
    compiled = compile_module(built.module)
    sim = CoSimulator(memory=built.memory, faults=faults)
    try:
        results = TraceExecutor(compiled, sim).run("main", list(args))
        error = None
    except Exception as exc:  # noqa: BLE001 - lanes must reproduce it
        results, error = None, (type(exc).__name__, str(exc))
    return results, error, sim, built.memory


def assert_batch_matches(program, pipeline, lane_specs):
    """``lane_specs`` is a list of (args, fault seed or None, rates)."""
    batch_built = build(program)
    pipeline_by_name(pipeline).run(batch_built.module)
    try:
        compiled = compile_module(batch_built.module)
    except TraceCompileError:
        return  # tree-only module: the batch engine doesn't run these
    lanes = []
    expected = []
    for args, fault_seed, rates in lane_specs:
        lane_built = build(program)
        pipeline_by_name(pipeline).run(lane_built.module)
        injector = (
            FaultInjector(fault_seed, rates) if fault_seed is not None else None
        )
        lanes.append(
            BatchLane(
                memory=lane_built.memory, args=list(args), faults=injector
            )
        )
        scalar_faults = (
            FaultInjector(fault_seed, rates) if fault_seed is not None else None
        )
        expected.append(scalar_run(program, pipeline, args, scalar_faults))
    lane_results = BatchExecutor(
        compiled, module=batch_built.module
    ).run(lanes)
    for index, (lane, exp) in enumerate(zip(lane_results, expected)):
        problems = _batch_lane_divergences(lane, *exp)
        assert not problems, f"lane {index}: " + "; ".join(problems)


def branch_lane_specs(program):
    """Canonical args plus the flipped-condition lane (group splitting)."""
    cond = int(program.cond_value)
    return [
        ((cond, 0), None, None),
        ((1 - cond, 0), None, None),
        ((cond, 0), None, None),  # duplicate lane: stays in lockstep
    ]


@RELAXED
@given(programs())
def test_batch_matches_scalar_unoptimized(program):
    assert_batch_matches(program, "none", branch_lane_specs(program))


@RELAXED
@given(programs())
def test_batch_matches_scalar_after_full(program):
    assert_batch_matches(program, "full", branch_lane_specs(program))


@RELAXED
@given(programs())
def test_batch_matches_scalar_after_overlap(program):
    assert_batch_matches(program, "overlap", branch_lane_specs(program))


@RELAXED
@given(programs(), st.integers(min_value=0, max_value=2**32 - 1), RATE_MIXES)
def test_fault_lanes_match_seeded_scalar_runs(program, fault_seed, rates):
    cond = int(program.cond_value)
    assert_batch_matches(
        program,
        "none",
        [
            ((cond, 0), None, None),
            ((cond, 0), fault_seed, rates),
            ((1 - cond, 0), fault_seed + 1, rates),
        ],
    )
