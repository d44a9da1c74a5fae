"""Textual IR parser.

Reads the format produced by :mod:`repro.ir.printer` back into IR objects.
Custom op syntax is resolved through the :mod:`repro.ir.registry` tables; any
op printed in the generic ``"dialect.op"(...)`` form parses without dialect
support (unknown names become :class:`UnregisteredOp`).
"""

from __future__ import annotations

import re

from .attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    FunctionType,
    IndexType,
    IntegerAttr,
    IntegerType,
    StringAttr,
    SymbolRefAttr,
    TypeAttribute,
    UnitAttr,
)
from .block import Block, Region
from .location import SourceLoc
from .operation import Operation, UnregisteredOp
from .registry import CUSTOM_PARSERS, OP_REGISTRY, TYPE_PARSERS
from .ssa import SSAValue


class ParseError(Exception):
    """Raised on malformed IR text, with line/column context."""


#: one token, preceded by any whitespace and ``//`` comments it skips; token
#: kinds are the group names, most frequent first.  A skipped comment runs
#: through its newline, so backtracking can never end it early and read its
#: tail as a token.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]*(?://[^\n]*\n[ \t\r\n]*)*
    (?:
      (?P<PUNCT>[(){}\[\]<>=,:])
    | (?P<PERCENT>%[A-Za-z0-9_]+)
    | (?P<ID>[A-Za-z_][A-Za-z0-9_.$]*)
    | (?P<INT>-?\d+)
    | (?P<BANGID>![A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)
    | (?P<STRING>"(?:[^"\\]|\\.)*")
    | (?P<ARROW>->)
    | (?P<AT>@[A-Za-z0-9_.$-]+)
    | (?P<CARET>\^[A-Za-z0-9_]*)
    | (?P<HASHID>\#[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)
    )
    """,
    re.VERBOSE,
)
_KINDS = (None, *sorted(_TOKEN_RE.groupindex, key=_TOKEN_RE.groupindex.get))
_SKIP_RE = re.compile(r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*")


#: types are immutable values, so the common ones are shared
_BUILTIN_TYPES: dict[str, TypeAttribute] = {
    "index": IndexType(),
    **{f"i{width}": IntegerType(width) for width in (1, 8, 16, 32, 64)},
}


def line_column(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """Split ``text`` into parallel lists of token kinds, texts and offsets.

    The last token is ``EOF`` (empty text, offset ``len(text)``).
    """
    kinds: list[str] = []
    texts: list[str] = []
    offsets: list[int] = []
    add_kind, add_text, add_offset = kinds.append, texts.append, offsets.append
    end = 0
    for match in iter(_TOKEN_RE.scanner(text).match, None):
        group = match.lastindex
        add_kind(_KINDS[group])
        add_text(match[group])
        add_offset(match.start(group))
        end = match.end()
    end = _SKIP_RE.match(text, end).end()
    if end < len(text):
        line, column = line_column(text, end)
        raise ParseError(f"line {line}:{column}: unexpected character {text[end]!r}")
    add_kind("EOF")
    add_text("")
    add_offset(end)
    return kinds, texts, offsets


class Parser:
    """Recursive-descent parser over the token stream.

    The current token is ``kind`` and ``text``, plain attributes that
    :meth:`advance` moves along.  Value names are resolved through a stack
    of scopes; entering a region pushes a scope so names shadow correctly
    while enclosing definitions remain visible (matching MLIR's visibility
    rules for non-isolated ops).
    """

    def __init__(self, text: str, filename: str | None = None) -> None:
        self._source = text
        self._kinds, self._texts, self._offsets = tokenize(text)
        self._pos = 0
        self.kind = self._kinds[0]
        self.text = self._texts[0]
        self._scopes: list[dict[str, SSAValue]] = [{}]
        self._filename = filename
        # line-counting cursor: ``_line`` is the line of offset ``_line_at``
        self._line = 1
        self._line_at = 0

    # -- token access --------------------------------------------------------

    def advance(self) -> str:
        """Consume the current token; returns its text."""
        text = self.text
        if self.kind != "EOF":
            self._pos += 1
            self.kind = self._kinds[self._pos]
            self.text = self._texts[self._pos]
        return text

    def location(self) -> tuple[int, int]:
        """Line and column of the current token.

        Counts newlines from the previous query, so a parse that asks in
        source order scans the text once.
        """
        offset = self._offsets[self._pos]
        if offset >= self._line_at:
            self._line += self._source.count("\n", self._line_at, offset)
        else:
            self._line -= self._source.count("\n", offset, self._line_at)
        self._line_at = offset
        return self._line, offset - self._source.rfind("\n", 0, offset)

    def error(self, message: str) -> ParseError:
        line, column = self.location()
        return ParseError(f"line {line}:{column}: {message} (found {self.text!r})")

    # The three helpers below step inline rather than through advance():
    # they are the parser's hottest calls, and the token they consume is
    # never EOF (its kind is not asked for and its text is empty).

    def accept(self, text: str) -> bool:
        if self.text != text:
            return False
        pos = self._pos = self._pos + 1
        self.kind = self._kinds[pos]
        self.text = self._texts[pos]
        return True

    def expect(self, text: str) -> None:
        if self.text != text:
            raise self.error(f"expected {text!r}")
        pos = self._pos = self._pos + 1
        self.kind = self._kinds[pos]
        self.text = self._texts[pos]

    def expect_kind(self, kind: str) -> str:
        """Consume a token of ``kind``; returns its text."""
        if self.kind != kind:
            raise self.error(f"expected {kind}")
        text = self.text
        pos = self._pos = self._pos + 1
        self.kind = self._kinds[pos]
        self.text = self._texts[pos]
        return text

    # -- scopes ------------------------------------------------------------

    def push_scope(self) -> None:
        self._scopes.append({})

    def pop_scope(self) -> None:
        self._scopes.pop()

    def define_value(self, name: str, value: SSAValue) -> None:
        value.name_hint = name
        self._scopes[-1][name] = value

    def lookup_value(self, name: str) -> SSAValue:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        raise self.error(f"use of undefined value %{name}")

    # -- common fragments --------------------------------------------------

    def parse_string(self) -> str:
        body = self.expect_kind("STRING")[1:-1]
        if "\\" not in body:
            return body
        return body.replace('\\"', '"').replace("\\\\", "\\").replace("\\n", "\n")

    def parse_int(self) -> int:
        return int(self.expect_kind("INT"))

    def parse_value_use(self) -> SSAValue:
        if self.kind != "PERCENT":
            raise self.error("expected PERCENT")
        # Look up before consuming, so an undefined name is the error's token.
        value = self.lookup_value(self.text[1:])
        self.advance()
        return value

    def parse_value_use_list(self, terminator: str) -> list[SSAValue]:
        values: list[SSAValue] = []
        if self.text == terminator:
            return values
        values.append(self.parse_value_use())
        while self.accept(","):
            values.append(self.parse_value_use())
        return values

    # -- types -------------------------------------------------------------

    def parse_type(self) -> TypeAttribute:
        kind, text = self.kind, self.text
        if kind == "ID":
            builtin = _BUILTIN_TYPES.get(text)
            if builtin is None:
                match = re.fullmatch(r"i(\d+)", text)
                if match is None:
                    raise self.error(f"unknown type '{text}'")
                builtin = IntegerType(int(match.group(1)))
            self.advance()
            return builtin
        if kind == "BANGID":
            dialect = text[1:].split(".", 1)[0]
            parser_fn = TYPE_PARSERS.get(dialect)
            if parser_fn is None:
                raise self.error(f"no type parser for dialect '{dialect}'")
            return parser_fn(self)
        if text == "(":
            return self.parse_function_type()
        raise self.error("expected a type")

    def parse_function_type(self) -> FunctionType:
        self.expect("(")
        inputs: list[TypeAttribute] = []
        if not self.accept(")"):
            inputs.append(self.parse_type())
            while self.accept(","):
                inputs.append(self.parse_type())
            self.expect(")")
        self.expect("->")
        results: list[TypeAttribute] = []
        if self.accept("("):
            if not self.accept(")"):
                results.append(self.parse_type())
                while self.accept(","):
                    results.append(self.parse_type())
                self.expect(")")
        else:
            results.append(self.parse_type())
        return FunctionType(tuple(inputs), tuple(results))

    def parse_type_list(self) -> list[TypeAttribute]:
        """Parse ``t`` or ``(t, t, ...)``."""
        types: list[TypeAttribute] = []
        if self.accept("("):
            if not self.accept(")"):
                types.append(self.parse_type())
                while self.accept(","):
                    types.append(self.parse_type())
                self.expect(")")
        else:
            types.append(self.parse_type())
        return types

    # -- attributes ------------------------------------------------------

    def parse_attribute(self) -> Attribute:
        kind, text = self.kind, self.text
        if kind == "STRING":
            return StringAttr(self.parse_string())
        if kind == "INT":
            value = self.parse_int()
            if self.accept(":"):
                return IntegerAttr(value, self.parse_type())
            return IntegerAttr(value)
        if kind == "AT":
            self.advance()
            return SymbolRefAttr(text[1:])
        if text == "true":
            self.advance()
            return BoolAttr(True)
        if text == "false":
            self.advance()
            return BoolAttr(False)
        if text == "unit":
            self.advance()
            return UnitAttr()
        if text == "[":
            self.advance()
            elements: list[Attribute] = []
            if not self.accept("]"):
                elements.append(self.parse_attribute())
                while self.accept(","):
                    elements.append(self.parse_attribute())
                self.expect("]")
            return ArrayAttr(tuple(elements))
        if kind == "HASHID":
            from .registry import ATTR_PARSERS

            dialect = text[1:].split(".", 1)[0]
            parser_fn = ATTR_PARSERS.get(dialect)
            if parser_fn is None:
                raise self.error(f"no attribute parser for dialect '{dialect}'")
            return parser_fn(self)
        if kind in ("ID", "BANGID") or text == "(":
            return self.parse_type()
        raise self.error("expected an attribute")

    def parse_attr_dict(self) -> dict[str, Attribute]:
        attrs: dict[str, Attribute] = {}
        if not self.accept("{"):
            return attrs
        if self.accept("}"):
            return attrs
        while True:
            if self.kind not in ("ID", "STRING"):
                raise self.error("expected attribute name")
            key = self.parse_string() if self.kind == "STRING" else self.advance()
            if self.accept("="):
                attrs[key] = self.parse_attribute()
            else:
                attrs[key] = UnitAttr()
            if not self.accept(","):
                break
        self.expect("}")
        return attrs

    # -- operations ------------------------------------------------------

    def parse_module(self) -> Operation:
        """Parse a whole input: a ``builtin.module`` or a bare op list."""
        from ..dialects.builtin import ModuleOp

        if self.text == "builtin.module":
            op = self.parse_operation()
            if self.kind != "EOF":
                raise self.error("unexpected trailing input")
            if not isinstance(op, ModuleOp):
                raise self.error("expected builtin.module at top level")
            return op
        block = Block()
        while self.kind != "EOF":
            block.add_op(self.parse_operation())
        module = ModuleOp.create()
        for op in list(block.ops):
            block.detach_op(op)
            module.body_block.add_op(op)
        return module

    def parse_operation(self) -> Operation:
        line, column = self.location()
        result_names: list[str] = []
        if self.kind == "PERCENT":
            result_names.append(self.advance()[1:])
            while self.accept(","):
                result_names.append(self.expect_kind("PERCENT")[1:])
            self.expect("=")
        op = self._parse_op_body()
        # Nested ops got their own locations during the recursive parse;
        # only the op this call produced is still unlocated.
        if op.loc is None:
            op.loc = SourceLoc(line, column, self._filename)
        if result_names:
            if len(result_names) != len(op.results):
                raise self.error(
                    f"op '{op.name}' produces {len(op.results)} results, "
                    f"but {len(result_names)} names given"
                )
            for name, result in zip(result_names, op.results):
                self.define_value(name, result)
        return op

    def _parse_op_body(self) -> Operation:
        if self.kind == "STRING":
            return self._parse_generic_op()
        if self.kind == "ID":
            name = self.text
            custom = CUSTOM_PARSERS.get(name)
            if custom is not None:
                self.advance()
                op = custom(self)
                # Optional trailing attribute dictionary for annotations the
                # custom syntax does not carry (e.g. accfg.effects).  A bare
                # '{' can never start the next operation, so this is
                # unambiguous.
                if self.text == "{" and op.name != "builtin.module":
                    op.attributes.update(self.parse_attr_dict())
                return op
            raise self.error(f"unknown operation '{name}'")
        raise self.error("expected an operation")

    def _parse_generic_op(self) -> Operation:
        name = self.parse_string()
        self.expect("(")
        operands = self.parse_value_use_list(")")
        self.expect(")")
        attrs = self.parse_attr_dict()
        self.expect(":")
        func_type = self.parse_function_type()
        if len(func_type.inputs) != len(operands):
            raise self.error(
                f"op '{name}': {len(operands)} operands but "
                f"{len(func_type.inputs)} operand types"
            )
        regions: list[Region] = []
        while self.text == "{":
            regions.append(self.parse_region())
        op_class = OP_REGISTRY.get(name)
        if op_class is None:
            return UnregisteredOp(
                name,
                operands=operands,
                result_types=func_type.results,
                attributes=attrs,
                regions=regions,
            )
        op = object.__new__(op_class)
        Operation.__init__(
            op, operands=operands, result_types=func_type.results, attributes=attrs
        )
        for region in regions:
            op.add_region(region)
        return op

    def parse_region(
        self, entry_args: list[tuple[str, TypeAttribute]] | None = None
    ) -> Region:
        """Parse ``{ ... }``.

        ``entry_args`` pre-declares entry block arguments whose names come
        from the op's custom syntax (e.g. the induction variable of
        ``scf.for``); otherwise an optional ``^bb(...):`` header is parsed.
        """
        self.expect("{")
        self.push_scope()
        block = Block()
        if entry_args:
            for arg_name, arg_type in entry_args:
                arg = block.add_arg(arg_type, arg_name)
                self.define_value(arg_name, arg)
        elif self.kind == "CARET":
            self.advance()
            self.expect("(")
            if not self.accept(")"):
                while True:
                    arg_name = self.expect_kind("PERCENT")[1:]
                    self.expect(":")
                    arg_type = self.parse_type()
                    arg = block.add_arg(arg_type, arg_name)
                    self.define_value(arg_name, arg)
                    if not self.accept(","):
                        break
                self.expect(")")
            self.expect(":")
        while self.text != "}":
            block.add_op(self.parse_operation())
        self.expect("}")
        self.pop_scope()
        return Region([block])


def parse_module(text: str, filename: str | None = None) -> Operation:
    """Parse IR text into a ``builtin.module`` op."""
    # Importing the dialects registers ops, custom parsers, and type parsers.
    from .. import dialects  # noqa: F401

    return Parser(text, filename).parse_module()


def parse_operation(text: str, filename: str | None = None) -> Operation:
    """Parse a single operation from text (dialects must self-register)."""
    from .. import dialects  # noqa: F401

    parser = Parser(text, filename)
    op = parser.parse_operation()
    if parser.kind != "EOF":
        raise parser.error("unexpected trailing input")
    return op
