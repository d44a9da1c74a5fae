"""Tests for the accfg dialect: the paper's core abstraction."""

import pytest

from repro.dialects import accfg, arith
from repro.ir import VerifyError, i64

ACCEL = "toyvec"


def const(value=0):
    return arith.ConstantOp.create(value, i64)


def setup(fields=None, in_state=None, accel=ACCEL):
    return accfg.SetupOp.create(accel, fields or [], in_state)


class TestTypes:
    def test_state_type_str(self):
        assert str(accfg.StateType("x")) == '!accfg.state<"x">'

    def test_token_type_str(self):
        assert str(accfg.TokenType("x")) == '!accfg.token<"x">'

    def test_types_compare_by_accelerator(self):
        assert accfg.StateType("a") == accfg.StateType("a")
        assert accfg.StateType("a") != accfg.StateType("b")
        assert accfg.StateType("a") != accfg.TokenType("a")


class TestEffectsAttr:
    def test_valid_values(self):
        assert accfg.EffectsAttr("all").effects == "all"
        assert str(accfg.EffectsAttr("none")) == "#accfg.effects<none>"

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            accfg.EffectsAttr("some")

    def test_set_get_roundtrip(self):
        op = const()
        assert accfg.get_effects(op) is None
        accfg.set_effects(op, "none")
        assert accfg.get_effects(op) == "none"
        accfg.set_effects(op, "all")
        assert accfg.get_effects(op) == "all"


class TestSetupOp:
    def test_fields_accessors(self):
        a, b = const(1), const(2)
        op = setup([("x", a.result), ("y", b.result)])
        assert op.field_names == ("x", "y")
        assert op.field_values == (a.result, b.result)
        assert op.fields == (("x", a.result), ("y", b.result))
        assert op.field_value("y") is b.result
        assert op.field_value("z") is None

    def test_accelerator(self):
        assert setup().accelerator == ACCEL

    def test_state_chaining(self):
        s1 = setup([("x", const(1).result)])
        s2 = setup([("x", const(2).result)], in_state=s1.out_state)
        assert s2.in_state is s1.out_state
        assert s1.in_state is None

    def test_result_is_state_type(self):
        op = setup()
        assert op.out_state.type == accfg.StateType(ACCEL)

    def test_set_fields_preserves_state(self):
        s1 = setup()
        s2 = setup([("x", const(1).result)], in_state=s1.out_state)
        v = const(9)
        s2.set_fields([("y", v.result)])
        assert s2.in_state is s1.out_state
        assert s2.fields == (("y", v.result),)

    def test_set_in_state(self):
        s1 = setup()
        s2 = setup([("x", const(1).result)])
        s2.set_in_state(s1.out_state)
        assert s2.in_state is s1.out_state
        s2.set_in_state(None)
        assert s2.in_state is None
        assert s2.field_names == ("x",)

    def test_duplicate_fields_rejected(self):
        op = setup([("x", const(1).result), ("x", const(2).result)])
        with pytest.raises(VerifyError, match="duplicate"):
            op.verify_()

    def test_state_as_field_value_rejected(self):
        s1 = setup()
        op = accfg.SetupOp(
            operands=[s1.out_state],
            result_types=[accfg.StateType(ACCEL)],
        )
        from repro.ir import ArrayAttr, StringAttr

        op.attributes["accelerator"] = StringAttr(ACCEL)
        # claim the state operand is a field by not treating it as in_state:
        # the first operand IS a state, so it's interpreted as in_state and
        # param_names must be empty.
        op.attributes["param_names"] = ArrayAttr((StringAttr("x"),))
        with pytest.raises(VerifyError):
            op.verify_()

    def test_mismatched_accelerator_state(self):
        s1 = setup(accel="a")
        with pytest.raises(VerifyError):
            op = accfg.SetupOp.create("b", [], s1.out_state)
            op.verify_()


class TestLaunchOp:
    def test_basic(self):
        s = setup()
        launch = accfg.LaunchOp.create(s.out_state)
        assert launch.state is s.out_state
        assert launch.token.type == accfg.TokenType(ACCEL)
        assert launch.accelerator == ACCEL
        launch.verify_()

    def test_launch_fields(self):
        s = setup()
        v = const(3)
        launch = accfg.LaunchOp.create(s.out_state, [("op", v.result)])
        assert launch.fields == (("op", v.result),)
        launch.verify_()

    def test_launch_requires_state(self):
        with pytest.raises(VerifyError):
            accfg.LaunchOp.create(const(1).result)


class TestRegisteredFields:
    def test_setup_field_missing_from_spec_rejected(self):
        op = setup([("no_such_field", const(1).result)])
        with pytest.raises(VerifyError) as info:
            op.verify_()
        message = str(info.value)
        assert "accfg.setup" in message
        assert "'toyvec'" in message and "'no_such_field'" in message

    def test_launch_field_missing_from_spec_rejected(self):
        launch = accfg.LaunchOp.create(
            setup().out_state, [("go", const(3).result)]
        )
        with pytest.raises(VerifyError) as info:
            launch.verify_()
        message = str(info.value)
        assert "accfg.launch" in message
        assert "'toyvec'" in message and "'go'" in message

    def test_unregistered_accelerator_is_left_to_the_lint(self):
        # ACCFG009 warns about the accelerator name; the verifier accepts it.
        op = setup([("anything", const(1).result)], accel="not_registered")
        op.verify_()
        accfg.LaunchOp.create(op.out_state, [("go", const(2).result)]).verify_()


class TestAwaitOp:
    def test_basic(self):
        s = setup()
        token = accfg.LaunchOp.create(s.out_state).token
        op = accfg.AwaitOp.create(token)
        assert op.token is token
        assert op.accelerator == ACCEL
        op.verify_()

    def test_requires_token(self):
        with pytest.raises(VerifyError):
            accfg.AwaitOp.create(const(1).result)


class TestResetOp:
    def test_basic(self):
        s = setup()
        op = accfg.ResetOp.create(s.out_state)
        assert op.state is s.out_state
        op.verify_()

    def test_requires_state(self):
        with pytest.raises(VerifyError):
            accfg.ResetOp.create(const(1).result)
