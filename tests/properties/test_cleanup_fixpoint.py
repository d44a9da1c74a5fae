"""Property: every cleanup a registered pipeline runs reaches its fixpoint.

The fused ``cleanup`` pass claims the joint canonicalize+CSE+DCE fixpoint.
This property drives every registered pipeline over random accfg programs
and, right after each ``CleanupPass`` in it, applies cleanup once more: the
second run must report ``False`` (module untouched).  Re-running a whole
pipeline is not a no-op (LICM after cleanup exposes new folds), so the
check sits at each cleanup, not at the pipeline's end.
"""

from hypothesis import HealthCheck, given, settings

from repro.ir import verify_operation
from repro.passes import PIPELINES, CleanupPass, PassManager, pipeline_by_name
from repro.testing.generator import build, programs

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@RELAXED
@given(programs())
def test_every_pipeline_cleanup_reaches_fixpoint(program):
    for name in PIPELINES:
        module = build(program).module
        pipeline = pipeline_by_name(name)
        for position, pass_ in enumerate(pipeline.passes):
            # One pass at a time, so each change report still invalidates
            # the pipeline's analyses as in a whole-pipeline run.
            PassManager(
                [pass_], verify_each=False, analyses=pipeline.analyses
            ).run(module)
            if isinstance(pass_, CleanupPass):
                report = CleanupPass().apply(module, None)
                assert report is False, (
                    f"pipeline {name!r}: cleanup at pass {position + 1} "
                    f"is not at its fixpoint (second run reported {report!r})"
                )
        verify_operation(module)
