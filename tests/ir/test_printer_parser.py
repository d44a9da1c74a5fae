"""Round-trip and error tests for the textual printer/parser pair."""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from repro.ir import ParseError, parse_module, parse_operation, verify_operation
from repro.ir.parser import line_column, tokenize


def roundtrip(text: str) -> str:
    module = parse_module(text)
    verify_operation(module)
    printed = str(module)
    module2 = parse_module(printed)
    verify_operation(module2)
    assert str(module2) == printed, "second round-trip diverged"
    return printed


class TestTokenizer:
    def test_basic_tokens(self):
        kinds, _, _ = tokenize('%x = "foo.bar"() : () -> ()')
        assert kinds[:3] == ["PERCENT", "PUNCT", "STRING"]

    def test_comments_skipped(self):
        kinds, texts, _ = tokenize("// a comment\n%x")
        assert kinds == ["PERCENT", "EOF"]
        assert texts == ["%x", ""]

    def test_comment_at_end_of_input_is_skipped_whole(self):
        for text in ("%x // tail", "%x\n  // tail\n"):
            kinds, _, _ = tokenize(text)
            assert kinds == ["PERCENT", "EOF"]

    def test_line_numbers(self):
        text = "\n\n%x"
        _, _, offsets = tokenize(text)
        assert line_column(text, offsets[0]) == (3, 1)

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize("€")

    def test_arrow_token(self):
        assert tokenize("->")[0][0] == "ARROW"


class TestRoundTrips:
    def test_constants_and_arith(self):
        roundtrip(
            """
            builtin.module {
              func.func @f(%a : i64) -> (i64) {
                %c = arith.constant 3 : i64
                %s = arith.shli %a, %c : i64
                %o = arith.ori %s, %c : i64
                %m = arith.muli %o, %o : i64
                func.return %m : i64
              }
            }
            """
        )

    def test_cmp_select(self):
        roundtrip(
            """
            builtin.module {
              func.func @f(%a : i64, %b : i64) -> (i64) {
                %c = arith.cmpi slt, %a, %b : i64
                %r = arith.select %c, %a, %b : i64
                func.return %r : i64
              }
            }
            """
        )

    def test_nested_loops_with_iter_args(self):
        roundtrip(
            """
            builtin.module {
              func.func @f() -> (index) {
                %c0 = arith.constant 0 : index
                %c1 = arith.constant 1 : index
                %c4 = arith.constant 4 : index
                %sum = scf.for %i = %c0 to %c4 step %c1 iter_args(%acc = %c0) -> (index) {
                  %inner = scf.for %j = %c0 to %c4 step %c1 iter_args(%acc2 = %acc) -> (index) {
                    %n = arith.addi %acc2, %j : index
                    scf.yield %n : index
                  }
                  scf.yield %inner : index
                }
                func.return %sum : index
              }
            }
            """
        )

    def test_if_else_with_results(self):
        roundtrip(
            """
            builtin.module {
              func.func @f(%cond : i1, %a : i64, %b : i64) -> (i64) {
                %r = scf.if %cond -> (i64) {
                  scf.yield %a : i64
                } else {
                  scf.yield %b : i64
                }
                func.return %r : i64
              }
            }
            """
        )

    def test_if_without_else(self):
        printed = roundtrip(
            """
            builtin.module {
              func.func @f(%cond : i1) -> () {
                scf.if %cond {
                  %c = arith.constant 1 : i64
                  scf.yield
                }
                func.return
              }
            }
            """
        )
        assert "else" not in printed

    def test_accfg_cluster(self):
        printed = roundtrip(
            """
            builtin.module {
              func.func @f(%v : i64) -> () {
                %s = accfg.setup on "toyvec" ("n" = %v : i64) : !accfg.state<"toyvec">
                %s2 = accfg.setup on "toyvec" from %s ("op" = %v : i64) : !accfg.state<"toyvec">
                %t = accfg.launch %s2 : !accfg.token<"toyvec">
                accfg.await %t
                accfg.reset %s2
                func.return
              }
            }
            """
        )
        assert 'accfg.setup on "toyvec" from' in printed

    def test_launch_with_fields(self):
        roundtrip(
            """
            builtin.module {
              func.func @f(%v : i64) -> () {
                %s = accfg.setup on "gemmini" () : !accfg.state<"gemmini">
                %t = accfg.launch %s ("op" = %v : i64) : !accfg.token<"gemmini">
                func.return
              }
            }
            """
        )

    def test_generic_unregistered_op(self):
        printed = roundtrip(
            """
            builtin.module {
              func.func @f(%a : i64) -> () {
                "foreign.barrier"(%a) {tag = 7 : i64} : (i64) -> ()
                func.return
              }
            }
            """
        )
        assert '"foreign.barrier"' in printed

    def test_function_call_and_declaration(self):
        roundtrip(
            """
            builtin.module {
              func.func @helper(i64) -> (i64)
              func.func @main(%a : i64) -> (i64) {
                %r = func.call @helper(%a) : (i64) -> (i64)
                func.return %r : i64
              }
            }
            """
        )

    def test_bare_ops_without_module_wrapper(self):
        module = parse_module("func.func @f() -> () { func.return }")
        assert module.name == "builtin.module"

    def test_name_hints_preserved(self):
        printed = roundtrip(
            """
            builtin.module {
              func.func @f() -> () {
                %my_value = arith.constant 1 : i64
                func.return
              }
            }
            """
        )
        assert "%my_value" in printed


class TestParseErrors:
    def test_undefined_value(self):
        with pytest.raises(ParseError, match="undefined value"):
            parse_module("func.func @f() -> () { %x = arith.addi %y, %y : i64 \n func.return }")

    def test_unknown_op(self):
        with pytest.raises(ParseError, match="unknown operation"):
            parse_module("func.func @f() -> () { frobnicate %x \n func.return }")

    def test_result_count_mismatch(self):
        with pytest.raises(ParseError, match="results"):
            parse_operation('%a, %b = "test.op"() : () -> (i64)')

    def test_operand_type_count_mismatch(self):
        with pytest.raises(ParseError, match="operand"):
            parse_module(
                """
                func.func @f(%a : i64) -> () {
                  "test.op"(%a) : (i64, i64) -> ()
                  func.return
                }
                """
            )

    def test_unknown_type(self):
        with pytest.raises(ParseError, match="unknown type"):
            parse_module("func.func @f(%a : floof) -> () { func.return }")

    def test_unknown_accfg_type_kind(self):
        with pytest.raises(ParseError, match="unknown accfg type"):
            parse_module('func.func @f(%a : !accfg.blah<"x">) -> () { func.return }')

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_operation("func.return }")


class TestParseErrorLocations:
    def test_error_after_comments_and_blank_lines(self):
        text = "// header\n\n  // more\n\nbuiltin.module {\n  %x = bogus.op\n}\n"
        with pytest.raises(ParseError, match=r"^line 6:8: unknown operation 'bogus.op'"):
            parse_module(text)

    def test_bad_character_after_comments(self):
        with pytest.raises(ParseError, match=r"^line 3:8: unexpected character '€'"):
            tokenize("// a comment with € in it\n\n  %x = € ")

    def test_error_at_end_of_input(self):
        with pytest.raises(ParseError, match=r"^line 3:1: expected an operation"):
            parse_module("builtin.module {\n  // unterminated\n")

    def test_error_inside_a_region_reports_its_own_line(self):
        text = (
            "func.func @f() -> () {\n"
            "  // the next line uses a value nobody defined\n"
            "\n"
            "  %x = arith.addi %y, %y : i64\n"
            "  func.return\n"
            "}\n"
        )
        with pytest.raises(ParseError, match=r"^line 4:19: use of undefined value %y"):
            parse_module(text)


@pytest.fixture(scope="module")
def example_texts(tmp_path_factory):
    """Hand-written example IR and a fuzz reproducer (comment header)."""
    from repro.testing.corpus import ReproducerMeta, write_reproducer
    from repro.testing.generator import Invoke, Loop, ProgramSpec, build_spec

    examples = Path(__file__).resolve().parents[2] / "examples"
    sys.path.insert(0, str(examples))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            import linalg_pipeline
            import quickstart
    finally:
        sys.path.remove(str(examples))
    spec = ProgramSpec(
        backend="toyvec",
        stmts=(Loop(2, (Invoke("toyvec", (), launch=True),)),),
    )
    meta = ReproducerMeta(
        backend="toyvec", pipeline="dedup", oracle="functional",
        seed=1, memory_seed=1, args=(1, 0),
    )
    directory = tmp_path_factory.mktemp("corpus")
    path = write_reproducer(str(directory), meta, str(build_spec(spec).module))
    return {
        "quickstart": quickstart.PROGRAM,
        "linalg_pipeline": linalg_pipeline.SOURCE,
        "reproducer": Path(path).read_text(),
    }


class TestSourceLocations:
    @pytest.mark.parametrize("name", ["quickstart", "linalg_pipeline", "reproducer"])
    def test_every_op_is_located_at_its_first_token(self, example_texts, name):
        text = example_texts[name]
        module = parse_module(text)
        ops = [op for op in module.walk() if op.loc is not None]
        assert len(ops) >= 8
        position = 0
        for op in ops:
            if op.results and op.results[0].name_hint:
                first = "%" + op.results[0].name_hint
            else:
                first = op.name
            # Ops print one per line, so an op starts its line; walk order
            # is text order, so each search starts at the previous op.
            found = re.compile(
                r"^[ \t]*(" + re.escape(first) + r"|\"" + re.escape(op.name) + r"\")",
                re.MULTILINE,
            ).search(text, position)
            assert found is not None, first
            position = found.start(1)
            assert (op.loc.line, op.loc.column) == line_column(text, position)


class TestValueNaming:
    def test_colliding_hints_get_suffixes(self):
        from repro.dialects import arith as _arith
        from repro.ir import Printer, i64

        a = _arith.ConstantOp.create(1, i64)
        b = _arith.ConstantOp.create(2, i64)
        a.result.name_hint = "x"
        b.result.name_hint = "x"
        printer = Printer()
        name_a = printer.assign_name(a.result)
        name_b = printer.assign_name(b.result)
        assert name_a == "x"
        assert name_b == "x_1"

    def test_invalid_hint_falls_back_to_number(self):
        from repro.dialects import arith as _arith
        from repro.ir import Printer, i64

        a = _arith.ConstantOp.create(1, i64)
        a.result.name_hint = "not a valid name!"
        assert Printer().assign_name(a.result) == "0"
