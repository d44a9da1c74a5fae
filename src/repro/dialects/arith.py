"""The arith dialect: integer constants, arithmetic, bitwise ops, compares.

These ops model the host-side scalar computation that accelerator
configuration code performs — loop-bound arithmetic, address computation, and
the bit-packing of configuration fields (paper, Listing 1 and Section 4.4).
Each op provides a ``fold`` hook used by the canonicalization pass; constant
folding of bit-packing is one of the "free" optimizations accfg unlocks
(Section 5.2).
"""

from __future__ import annotations

from ..ir.attributes import (
    Attribute,
    IntegerAttr,
    IntegerType,
    StringAttr,
    TypeAttribute,
    i1,
)
from ..ir.operation import Operation, VerifyError
from ..ir.printer import Printer
from ..ir.registry import register_custom_parser, register_op
from ..ir.ssa import SSAValue
from ..ir.traits import Pure


def _type_width_mask(type: TypeAttribute) -> int | None:
    if isinstance(type, IntegerType):
        return (1 << type.width) - 1
    return None  # index: model as unbounded Python int


def truncate_to_type(value: int, type: TypeAttribute) -> int:
    """Wrap ``value`` to the unsigned range of ``type`` (two's complement)."""
    mask = _type_width_mask(type)
    if mask is None:
        return value
    return value & mask


#: interned ``value`` attributes — constants repeat heavily (loop bounds,
#: field values), and reusing the attribute object skips a dataclass
#: construction per constant and makes later attribute hashing/equality hit
#: the identity fast path.  Keyed by the type *attribute* (not its id), so
#: entries keep their type alive and can never alias a recycled object.
_INTERNED_VALUES: dict[tuple[int, TypeAttribute], IntegerAttr] = {}


@register_op
class ConstantOp(Operation):
    """An integer constant: ``%c = arith.constant 5 : i64``."""

    name = "arith.constant"
    traits = frozenset([Pure()])
    custom_printed_attrs = frozenset(["value"])

    @staticmethod
    def create(value: int, type: TypeAttribute) -> "ConstantOp":
        op = ConstantOp(result_types=[type])
        key = (value, type)
        attr = _INTERNED_VALUES.get(key)
        if attr is None:
            attr = IntegerAttr(truncate_to_type(value, type), type)
            if len(_INTERNED_VALUES) < 4096:
                _INTERNED_VALUES[key] = attr
        op.attributes["value"] = attr
        return op

    @property
    def value(self) -> int:
        attr = self.attributes["value"]
        assert isinstance(attr, IntegerAttr)
        return attr.value

    def verify_(self) -> None:
        attr = self.attributes.get("value")
        if not isinstance(attr, IntegerAttr):
            raise VerifyError("arith.constant needs an integer 'value' attribute")
        if attr.type != self.result.type:
            raise VerifyError("arith.constant value type must match result type")

    def print_custom(self, printer: Printer) -> None:
        printer.emit(f"arith.constant {self.value} : {self.result.type}")


@register_custom_parser("arith.constant")
def _parse_constant(parser) -> ConstantOp:
    value = parser.parse_int()
    parser.expect(":")
    type = parser.parse_type()
    return ConstantOp.create(value, type)


class BinaryOp(Operation):
    """Base for two-operand, one-result integer ops of uniform type."""

    traits = frozenset([Pure()])
    commutative: bool = False

    @classmethod
    def create(cls, lhs: SSAValue, rhs: SSAValue) -> "BinaryOp":
        if lhs.type != rhs.type:
            raise VerifyError(
                f"{cls.name}: operand types differ ({lhs.type} vs {rhs.type})"
            )
        return cls(operands=[lhs, rhs], result_types=[lhs.type])

    @property
    def lhs(self) -> SSAValue:
        return self.operands[0]

    @property
    def rhs(self) -> SSAValue:
        return self.operands[1]

    def verify_(self) -> None:
        if len(self.operands) != 2 or len(self.results) != 1:
            raise VerifyError(f"{self.name} must have 2 operands and 1 result")
        if self.operands[0].type != self.operands[1].type:
            raise VerifyError(f"{self.name}: operand types differ")
        if self.operands[0].type != self.results[0].type:
            raise VerifyError(f"{self.name}: result type must match operands")

    def print_custom(self, printer: Printer) -> None:
        printer.emit(f"{self.name} ")
        printer.print_value(self.lhs)
        printer.emit(", ")
        printer.print_value(self.rhs)
        printer.emit(f" : {self.result.type}")

    # -- folding -------------------------------------------------------------

    def _operand_constants(self) -> tuple[int | None, int | None]:
        consts: list[int | None] = []
        for operand in self.operands:
            owner = operand.owner
            if isinstance(owner, ConstantOp):
                consts.append(owner.value)
            else:
                consts.append(None)
        return consts[0], consts[1]

    def evaluate(self, lhs: int, rhs: int) -> int:
        raise NotImplementedError

    def fold(self):
        lhs_const, rhs_const = self._operand_constants()
        if lhs_const is not None and rhs_const is not None:
            value = self.evaluate(lhs_const, rhs_const)
            return [IntegerAttr(truncate_to_type(value, self.result.type), self.result.type)]
        return self.fold_identities(lhs_const, rhs_const)

    def fold_identities(self, lhs_const: int | None, rhs_const: int | None):
        """Algebraic identities (x+0, x*1, ...); subclasses extend."""
        return None


def _binary_parser(cls):
    def parse(parser) -> BinaryOp:
        lhs = parser.parse_value_use()
        parser.expect(",")
        rhs = parser.parse_value_use()
        parser.expect(":")
        parser.parse_type()
        return cls.create(lhs, rhs)

    return parse


@register_op
class AddiOp(BinaryOp):
    """Integer addition (wrapping)."""

    name = "arith.addi"
    commutative = True

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs + rhs

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 0:
            return [self.lhs]
        if lhs_const == 0:
            return [self.rhs]
        return None


@register_op
class SubiOp(BinaryOp):
    """Integer subtraction (wrapping)."""

    name = "arith.subi"

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs - rhs

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 0:
            return [self.lhs]
        if self.lhs is self.rhs:
            return [IntegerAttr(0, self.result.type)]
        return None


@register_op
class MuliOp(BinaryOp):
    """Integer multiplication (wrapping)."""

    name = "arith.muli"
    commutative = True

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs * rhs

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 1:
            return [self.lhs]
        if lhs_const == 1:
            return [self.rhs]
        if rhs_const == 0 or lhs_const == 0:
            return [IntegerAttr(0, self.result.type)]
        return None


@register_op
class DivuiOp(BinaryOp):
    """Unsigned integer division (traps on zero)."""

    name = "arith.divui"

    def evaluate(self, lhs: int, rhs: int) -> int:
        if rhs == 0:
            raise ZeroDivisionError("arith.divui by zero")
        return lhs // rhs

    def fold(self):
        lhs_const, rhs_const = self._operand_constants()
        if rhs_const == 0:
            return None  # do not fold a trap
        if lhs_const is not None and rhs_const is not None:
            return [
                IntegerAttr(
                    truncate_to_type(lhs_const // rhs_const, self.result.type),
                    self.result.type,
                )
            ]
        if rhs_const == 1:
            return [self.lhs]
        return None


@register_op
class RemuiOp(BinaryOp):
    """Unsigned integer remainder (traps on zero)."""

    name = "arith.remui"

    def evaluate(self, lhs: int, rhs: int) -> int:
        if rhs == 0:
            raise ZeroDivisionError("arith.remui by zero")
        return lhs % rhs

    def fold(self):
        lhs_const, rhs_const = self._operand_constants()
        if rhs_const == 0:
            return None
        if lhs_const is not None and rhs_const is not None:
            return [
                IntegerAttr(
                    truncate_to_type(lhs_const % rhs_const, self.result.type),
                    self.result.type,
                )
            ]
        if rhs_const == 1:
            return [IntegerAttr(0, self.result.type)]
        return None


@register_op
class AndiOp(BinaryOp):
    """Bitwise AND."""

    name = "arith.andi"
    commutative = True

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs & rhs

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 0 or lhs_const == 0:
            return [IntegerAttr(0, self.result.type)]
        if self.lhs is self.rhs:
            return [self.lhs]
        return None


@register_op
class OriOp(BinaryOp):
    """Bitwise OR (the packing ladder's combiner, Listing 1)."""

    name = "arith.ori"
    commutative = True

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs | rhs

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 0:
            return [self.lhs]
        if lhs_const == 0:
            return [self.rhs]
        if self.lhs is self.rhs:
            return [self.lhs]
        return None


@register_op
class XoriOp(BinaryOp):
    """Bitwise XOR."""

    name = "arith.xori"
    commutative = True

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs ^ rhs

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 0:
            return [self.lhs]
        if lhs_const == 0:
            return [self.rhs]
        if self.lhs is self.rhs:
            return [IntegerAttr(0, self.result.type)]
        return None


@register_op
class ShliOp(BinaryOp):
    """Left shift (the packing ladder's positioner, Listing 1)."""

    name = "arith.shli"

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs << rhs

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 0:
            return [self.lhs]
        if lhs_const == 0:
            return [IntegerAttr(0, self.result.type)]
        return None


@register_op
class ShruiOp(BinaryOp):
    """Logical right shift."""

    name = "arith.shrui"

    def evaluate(self, lhs: int, rhs: int) -> int:
        return lhs >> rhs

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 0:
            return [self.lhs]
        if lhs_const == 0:
            return [IntegerAttr(0, self.result.type)]
        return None


@register_op
class MinUIOp(BinaryOp):
    """Unsigned minimum (bounds clipping in tiled code)."""

    name = "arith.minui"
    commutative = True

    def evaluate(self, lhs: int, rhs: int) -> int:
        return min(lhs, rhs)

    def fold_identities(self, lhs_const, rhs_const):
        if self.lhs is self.rhs:
            return [self.lhs]
        return None


@register_op
class MaxUIOp(BinaryOp):
    """Unsigned maximum."""

    name = "arith.maxui"
    commutative = True

    def evaluate(self, lhs: int, rhs: int) -> int:
        return max(lhs, rhs)

    def fold_identities(self, lhs_const, rhs_const):
        if self.lhs is self.rhs:
            return [self.lhs]
        return None


for _cls in (
    AddiOp,
    SubiOp,
    MuliOp,
    DivuiOp,
    RemuiOp,
    AndiOp,
    OriOp,
    XoriOp,
    ShliOp,
    ShruiOp,
    MinUIOp,
    MaxUIOp,
):
    register_custom_parser(_cls.name)(_binary_parser(_cls))


CMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")


@register_op
class CmpiOp(Operation):
    """Integer comparison producing an ``i1``."""

    name = "arith.cmpi"
    traits = frozenset([Pure()])
    custom_printed_attrs = frozenset(["predicate"])

    @staticmethod
    def create(predicate: str, lhs: SSAValue, rhs: SSAValue) -> "CmpiOp":
        if predicate not in CMP_PREDICATES:
            raise VerifyError(f"unknown cmpi predicate '{predicate}'")
        op = CmpiOp(operands=[lhs, rhs], result_types=[i1])
        op.attributes["predicate"] = StringAttr(predicate)
        return op

    @property
    def predicate(self) -> str:
        attr = self.attributes["predicate"]
        assert isinstance(attr, StringAttr)
        return attr.value

    @property
    def lhs(self) -> SSAValue:
        return self.operands[0]

    @property
    def rhs(self) -> SSAValue:
        return self.operands[1]

    def verify_(self) -> None:
        attr = self.attributes.get("predicate")
        if not isinstance(attr, StringAttr) or attr.value not in CMP_PREDICATES:
            raise VerifyError("arith.cmpi needs a valid 'predicate' attribute")
        if len(self.operands) != 2 or self.operands[0].type != self.operands[1].type:
            raise VerifyError("arith.cmpi operands must have matching types")
        if self.results[0].type != i1:
            raise VerifyError("arith.cmpi must return i1")

    @staticmethod
    def evaluate_predicate(predicate: str, lhs: int, rhs: int, width: int) -> bool:
        """Evaluate on unsigned representations of the given bit-width."""

        def to_signed(value: int) -> int:
            sign_bit = 1 << (width - 1)
            return (value & (sign_bit - 1)) - (value & sign_bit)

        if predicate in ("slt", "sle", "sgt", "sge"):
            lhs, rhs = to_signed(lhs), to_signed(rhs)
        table = {
            "eq": lhs == rhs,
            "ne": lhs != rhs,
            "slt": lhs < rhs,
            "sle": lhs <= rhs,
            "sgt": lhs > rhs,
            "sge": lhs >= rhs,
            "ult": lhs < rhs,
            "ule": lhs <= rhs,
            "ugt": lhs > rhs,
            "uge": lhs >= rhs,
        }
        return table[predicate]

    def fold(self):
        lhs_owner = self.lhs.owner
        rhs_owner = self.rhs.owner
        if isinstance(lhs_owner, ConstantOp) and isinstance(rhs_owner, ConstantOp):
            width = (
                self.lhs.type.width if isinstance(self.lhs.type, IntegerType) else 64
            )
            result = self.evaluate_predicate(
                self.predicate, lhs_owner.value, rhs_owner.value, width
            )
            return [IntegerAttr(int(result), i1)]
        if self.lhs is self.rhs and self.predicate in ("eq", "sle", "sge", "ule", "uge"):
            return [IntegerAttr(1, i1)]
        if self.lhs is self.rhs and self.predicate in ("ne", "slt", "sgt", "ult", "ugt"):
            return [IntegerAttr(0, i1)]
        return None

    def print_custom(self, printer: Printer) -> None:
        printer.emit(f"arith.cmpi {self.predicate}, ")
        printer.print_value(self.lhs)
        printer.emit(", ")
        printer.print_value(self.rhs)
        printer.emit(f" : {self.lhs.type}")


@register_custom_parser("arith.cmpi")
def _parse_cmpi(parser) -> CmpiOp:
    predicate = parser.expect_kind("ID")
    parser.expect(",")
    lhs = parser.parse_value_use()
    parser.expect(",")
    rhs = parser.parse_value_use()
    parser.expect(":")
    parser.parse_type()
    return CmpiOp.create(predicate, lhs, rhs)


@register_op
class SelectOp(Operation):
    """``%r = arith.select %cond, %true_value, %false_value : type``."""

    name = "arith.select"
    traits = frozenset([Pure()])

    @staticmethod
    def create(cond: SSAValue, true_value: SSAValue, false_value: SSAValue) -> "SelectOp":
        if true_value.type != false_value.type:
            raise VerifyError("arith.select branch types differ")
        return SelectOp(
            operands=[cond, true_value, false_value], result_types=[true_value.type]
        )

    @property
    def condition(self) -> SSAValue:
        return self.operands[0]

    @property
    def true_value(self) -> SSAValue:
        return self.operands[1]

    @property
    def false_value(self) -> SSAValue:
        return self.operands[2]

    def verify_(self) -> None:
        if len(self.operands) != 3:
            raise VerifyError("arith.select needs 3 operands")
        if self.operands[0].type != i1:
            raise VerifyError("arith.select condition must be i1")
        if self.operands[1].type != self.operands[2].type:
            raise VerifyError("arith.select branch types differ")

    def fold(self):
        owner = self.condition.owner
        if isinstance(owner, ConstantOp):
            return [self.true_value if owner.value else self.false_value]
        if self.true_value is self.false_value:
            return [self.true_value]
        return None

    def print_custom(self, printer: Printer) -> None:
        printer.emit("arith.select ")
        printer.print_value_list(self.operands)
        printer.emit(f" : {self.result.type}")


@register_custom_parser("arith.select")
def _parse_select(parser) -> SelectOp:
    cond = parser.parse_value_use()
    parser.expect(",")
    true_value = parser.parse_value_use()
    parser.expect(",")
    false_value = parser.parse_value_use()
    parser.expect(":")
    parser.parse_type()
    return SelectOp.create(cond, true_value, false_value)


def constant_value(value: SSAValue) -> int | None:
    """The compile-time integer of ``value`` if it comes from a constant."""
    owner = value.owner
    if isinstance(owner, ConstantOp):
        return owner.value
    return None


def materialize_attr(attr: Attribute) -> ConstantOp:
    """Create a constant op for a folded :class:`IntegerAttr` result."""
    if not isinstance(attr, IntegerAttr):
        raise VerifyError(f"cannot materialize attribute {attr} as a constant")
    return ConstantOp.create(attr.value, attr.type)
