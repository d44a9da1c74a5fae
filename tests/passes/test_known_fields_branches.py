"""Tests for the known-fields dataflow through branches (Section 5.4.1:
"our inference has to take the intersection of the two sides")."""

from repro.analysis.dataflow import KnownFields, KnownFieldsAnalysis, intersect
from repro.dialects import accfg, scf
from repro.ir import parse_module
from repro.passes import PIPELINES, TraceStatesPass, pipeline_by_name
from repro.testing.generator import (
    Branch,
    FieldWrite,
    Invoke,
    Loop,
    ProgramSpec,
    build_spec,
)
from repro.testing.oracles import check_subject, subject_for_spec


def known_after_if(text):
    module = parse_module(text)
    TraceStatesPass().apply(module)
    if_op = next(op for op in module.walk() if isinstance(op, scf.IfOp))
    state_result = next(
        r for r in if_op.results if isinstance(r.type, accfg.StateType)
    )
    return KnownFieldsAnalysis("toyvec").known(state_result)


class TestBranchIntersection:
    def test_field_written_in_one_branch_is_dropped(self):
        known = known_after_if(
            """
            func.func @f(%c : i1, %x : i64, %y : i64) -> () {
              %s0 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              scf.if %c {
                %s1 = accfg.setup on "toyvec" ("op" = %y : i64) : !accfg.state<"toyvec">
                scf.yield
              } else {
                scf.yield
              }
              func.return
            }
            """
        )
        # "n" survives (untouched on both paths); "op" is branch-dependent.
        assert "n" in known.fields
        assert "op" not in known.fields

    def test_same_value_on_both_paths_survives(self):
        known = known_after_if(
            """
            func.func @f(%c : i1, %x : i64) -> () {
              %s0 = accfg.setup on "toyvec" () : !accfg.state<"toyvec">
              scf.if %c {
                %s1 = accfg.setup on "toyvec" ("op" = %x : i64) : !accfg.state<"toyvec">
                scf.yield
              } else {
                %s2 = accfg.setup on "toyvec" ("op" = %x : i64) : !accfg.state<"toyvec">
                scf.yield
              }
              func.return
            }
            """
        )
        assert known.fields.get("op") is not None

    def test_different_values_per_path_dropped(self):
        known = known_after_if(
            """
            func.func @f(%c : i1, %x : i64, %y : i64) -> () {
              %s0 = accfg.setup on "toyvec" () : !accfg.state<"toyvec">
              scf.if %c {
                %s1 = accfg.setup on "toyvec" ("op" = %x : i64) : !accfg.state<"toyvec">
                scf.yield
              } else {
                %s2 = accfg.setup on "toyvec" ("op" = %y : i64) : !accfg.state<"toyvec">
                scf.yield
              }
              func.return
            }
            """
        )
        assert "op" not in known.fields

    def test_overwrite_on_one_path_kills_incoming_knowledge(self):
        known = known_after_if(
            """
            func.func @f(%c : i1, %x : i64, %y : i64) -> () {
              %s0 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              scf.if %c {
                %s1 = accfg.setup on "toyvec" ("n" = %y : i64) : !accfg.state<"toyvec">
                scf.yield
              } else {
                scf.yield
              }
              func.return
            }
            """
        )
        assert "n" not in known.fields

    def test_post_if_dedup_uses_intersection(self):
        """End to end: only the intersection-stable field is removable from
        the post-if setup."""
        from repro.passes import DedupPass

        module = parse_module(
            """
            func.func @f(%c : i1, %x : i64, %y : i64) -> () {
              %s0 = accfg.setup on "toyvec" ("n" = %x : i64, "op" = %x : i64) : !accfg.state<"toyvec">
              %t0 = accfg.launch %s0 : !accfg.token<"toyvec">
              scf.if %c {
                %s1 = accfg.setup on "toyvec" ("op" = %y : i64) : !accfg.state<"toyvec">
                %t1 = accfg.launch %s1 : !accfg.token<"toyvec">
                scf.yield
              } else {
                scf.yield
              }
              %s2 = accfg.setup on "toyvec" ("n" = %x : i64, "op" = %x : i64) : !accfg.state<"toyvec">
              %t2 = accfg.launch %s2 : !accfg.token<"toyvec">
              func.return
            }
            """
        )
        TraceStatesPass().apply(module)
        DedupPass().apply(module)
        # "n" is stable across both paths and dedup-able; "op" was
        # overwritten on one path and must still be written somewhere after
        # the branch (inside the branches after hoisting, or at the join).
        remaining = set()
        for setup in module.walk():
            if isinstance(setup, accfg.SetupOp):
                remaining.update(setup.field_names)
        # "op" must still be written somewhere after the branch (inside the
        # branches after hoisting, or in the final setup).
        assert "op" in remaining


class TestOptimisticMeet:
    """Regression (found by fuzzing): the meet of two optimistic tops must
    keep every override, one-sided or conflicting, or a loop-carried state
    claims to hold a value that a branch in the loop body overwrote."""

    def test_one_sided_and_conflicting_overrides_survive(self):
        module = parse_module(
            """
            func.func @f(%x : i64, %y : i64) -> () {
              func.return
            }
            """
        )
        x, y = next(op for op in module.walk() if op.name == "func.func").body.args
        a = KnownFields(True, {"n": x, "op": x})
        b = KnownFields(True, {"op": y, "ptr_y": y})
        for met in (intersect(a, b), intersect(b, a)):
            assert met.is_top
            assert met.fields["n"] is x
            assert met.fields["ptr_y"] is y
            assert met.fields["op"] is not x and met.fields["op"] is not y
            # A concrete side never matches the conflict marker.
            assert "op" not in intersect(met, KnownFields(False, {"op": x})).fields

    def test_loop_write_undone_by_a_branch_in_the_loop_survives_dedup(self):
        # Shrunk from ``fuzz(seed=1030144809)``, toyvec iteration 94:
        # ptr_y = c2; loop twice { ptr_y = c2; launch; if (true) { ptr_y = c1 } }
        spec = ProgramSpec(
            "toyvec",
            (
                Invoke("toyvec", (FieldWrite("ptr_y", 2),), launch=False),
                Loop(
                    2,
                    (
                        Invoke("toyvec", (FieldWrite("ptr_y", 2),)),
                        Branch(
                            (
                                Invoke(
                                    "toyvec", (FieldWrite("ptr_y", 1),), launch=False
                                ),
                            )
                        ),
                    ),
                ),
            ),
            cond_value=True,
        )
        module = build_spec(spec).module
        pipeline_by_name("dedup").run(module)
        loop = next(op for op in module.walk() if isinstance(op, scf.ForOp))
        in_loop = [
            op
            for op in loop.body.ops
            if isinstance(op, accfg.SetupOp) and op.accelerator == "toyvec"
        ]
        assert any("ptr_y" in op.field_names for op in in_loop)
        pipelines = {name: PIPELINES[name] for name in ("none", "dedup")}
        assert check_subject(subject_for_spec(spec), pipelines, timing=False) == []
