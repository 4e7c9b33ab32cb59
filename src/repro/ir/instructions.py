"""Instruction set of the repro IR.

The instruction set mirrors the subset of LLVM IR that the paper's
transformations operate on: integer arithmetic, comparisons, select, memory
(alloca/load/store/getelementptr), calls, control flow (br/switch/ret/
unreachable) and phi nodes, plus integer casts.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from .types import PointerType, Type, VOID, I1
from .values import Constant, User, Value

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from .basicblock import BasicBlock
    from .function import Function


class Opcode(enum.Enum):
    """Opcodes of all IR instructions."""

    # Arithmetic / bitwise
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SDIV = "sdiv"
    UDIV = "udiv"
    SREM = "srem"
    UREM = "urem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    LSHR = "lshr"
    ASHR = "ashr"
    # Comparison and selection
    ICMP = "icmp"
    SELECT = "select"
    # Memory
    ALLOCA = "alloca"
    LOAD = "load"
    STORE = "store"
    GEP = "getelementptr"
    # Casts
    ZEXT = "zext"
    SEXT = "sext"
    TRUNC = "trunc"
    PTRTOINT = "ptrtoint"
    INTTOPTR = "inttoptr"
    BITCAST = "bitcast"
    # Calls and control flow
    CALL = "call"
    BR = "br"
    SWITCH = "switch"
    RET = "ret"
    UNREACHABLE = "unreachable"
    PHI = "phi"


BINARY_OPCODES = {
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.SDIV, Opcode.UDIV,
    Opcode.SREM, Opcode.UREM, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.SHL, Opcode.LSHR, Opcode.ASHR,
}

CAST_OPCODES = {
    Opcode.ZEXT, Opcode.SEXT, Opcode.TRUNC,
    Opcode.PTRTOINT, Opcode.INTTOPTR, Opcode.BITCAST,
}

COMMUTATIVE_OPCODES = {Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR}

TERMINATOR_OPCODES = frozenset({
    Opcode.BR, Opcode.RET, Opcode.SWITCH, Opcode.UNREACHABLE})


class ICmpPredicate(enum.Enum):
    """Comparison predicates for :class:`ICmpInst`."""

    EQ = "eq"
    NE = "ne"
    SLT = "slt"
    SLE = "sle"
    SGT = "sgt"
    SGE = "sge"
    ULT = "ult"
    ULE = "ule"
    UGT = "ugt"
    UGE = "uge"

    def inverse(self) -> "ICmpPredicate":
        """The predicate whose result is the logical negation of this one."""
        table = {
            ICmpPredicate.EQ: ICmpPredicate.NE,
            ICmpPredicate.NE: ICmpPredicate.EQ,
            ICmpPredicate.SLT: ICmpPredicate.SGE,
            ICmpPredicate.SLE: ICmpPredicate.SGT,
            ICmpPredicate.SGT: ICmpPredicate.SLE,
            ICmpPredicate.SGE: ICmpPredicate.SLT,
            ICmpPredicate.ULT: ICmpPredicate.UGE,
            ICmpPredicate.ULE: ICmpPredicate.UGT,
            ICmpPredicate.UGT: ICmpPredicate.ULE,
            ICmpPredicate.UGE: ICmpPredicate.ULT,
        }
        return table[self]

    def swapped(self) -> "ICmpPredicate":
        """The predicate obtained by swapping the operands."""
        table = {
            ICmpPredicate.EQ: ICmpPredicate.EQ,
            ICmpPredicate.NE: ICmpPredicate.NE,
            ICmpPredicate.SLT: ICmpPredicate.SGT,
            ICmpPredicate.SLE: ICmpPredicate.SGE,
            ICmpPredicate.SGT: ICmpPredicate.SLT,
            ICmpPredicate.SGE: ICmpPredicate.SLE,
            ICmpPredicate.ULT: ICmpPredicate.UGT,
            ICmpPredicate.ULE: ICmpPredicate.UGE,
            ICmpPredicate.UGT: ICmpPredicate.ULT,
            ICmpPredicate.UGE: ICmpPredicate.ULE,
        }
        return table[self]


class Instruction(User):
    """Base class of all IR instructions."""

    opcode: Opcode

    def __init__(self, opcode: Opcode, ty: Type,
                 operands: Iterable[Value] = (), name: str = "") -> None:
        super().__init__(ty, operands, name)
        self.opcode = opcode
        self.parent: Optional["BasicBlock"] = None
        #: Free-form metadata preserved across passes (the paper's "program
        #: annotations"): value ranges, trip counts, alias sets, source types.
        self.metadata: Dict[str, object] = {}

    # ------------------------------------------------------------ properties
    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATOR_OPCODES

    @property
    def is_binary(self) -> bool:
        return self.opcode in BINARY_OPCODES

    @property
    def is_commutative(self) -> bool:
        return self.opcode in COMMUTATIVE_OPCODES

    @property
    def function(self) -> Optional["Function"]:
        return self.parent.parent if self.parent is not None else None

    # ------------------------------------------------------------ list hooks
    def set_operand(self, index: int, value: Value) -> None:
        super().set_operand(index, value)
        # A new branch target redirects a CFG edge; any other operand
        # rewrite changes values only.
        block = self.parent
        if block is not None:
            if value.is_block and self.opcode in TERMINATOR_OPCODES:
                block.bump_cfg_epoch()
            else:
                block.bump_ir_epoch()

    def erase_from_parent(self) -> None:
        """Unlink from the containing block and drop all operand uses."""
        if self.parent is not None:
            self.parent.remove_instruction(self)
        self.drop_all_references()

    def clone(self) -> "Instruction":
        """Shallow clone: same opcode/type/operands, no parent."""
        new = self.__class__.__new__(self.__class__)
        Instruction.__init__(new, self.opcode, self.type, list(self.operands),
                             self.name)
        for attr, value in self.__dict__.items():
            if attr in ("operands", "uses", "parent", "metadata"):
                continue
            setattr(new, attr, value)
        new.metadata = dict(self.metadata)
        new.parent = None
        return new

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.opcode.value} {self.ref()}>"


# --------------------------------------------------------------------------
# Arithmetic and logic
# --------------------------------------------------------------------------
class BinaryInst(Instruction):
    """A two-operand arithmetic or bitwise instruction."""

    def __init__(self, opcode: Opcode, lhs: Value, rhs: Value, name: str = "") -> None:
        if opcode not in BINARY_OPCODES:
            raise ValueError(f"{opcode} is not a binary opcode")
        super().__init__(opcode, lhs.type, (lhs, rhs), name)

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class ICmpInst(Instruction):
    """Integer (or pointer) comparison producing an ``i1``."""

    def __init__(self, predicate: ICmpPredicate, lhs: Value, rhs: Value,
                 name: str = "") -> None:
        super().__init__(Opcode.ICMP, I1, (lhs, rhs), name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def clone(self) -> "ICmpInst":
        new = ICmpInst(self.predicate, self.lhs, self.rhs, self.name)
        new.metadata = dict(self.metadata)
        return new


class SelectInst(Instruction):
    """``select cond, true_value, false_value`` — a branch-free conditional."""

    def __init__(self, condition: Value, true_value: Value, false_value: Value,
                 name: str = "") -> None:
        super().__init__(Opcode.SELECT, true_value.type,
                         (condition, true_value, false_value), name)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]


# --------------------------------------------------------------------------
# Casts
# --------------------------------------------------------------------------
class CastInst(Instruction):
    """Integer/pointer conversion (zext, sext, trunc, ptrtoint, inttoptr,
    bitcast)."""

    def __init__(self, opcode: Opcode, value: Value, to_type: Type,
                 name: str = "") -> None:
        if opcode not in CAST_OPCODES:
            raise ValueError(f"{opcode} is not a cast opcode")
        super().__init__(opcode, to_type, (value,), name)

    @property
    def value(self) -> Value:
        return self.operands[0]

    def clone(self) -> "CastInst":
        new = CastInst(self.opcode, self.value, self.type, self.name)
        new.metadata = dict(self.metadata)
        return new


# --------------------------------------------------------------------------
# Memory
# --------------------------------------------------------------------------
class AllocaInst(Instruction):
    """Stack allocation of one value of ``allocated_type``."""

    def __init__(self, allocated_type: Type, name: str = "") -> None:
        super().__init__(Opcode.ALLOCA, PointerType(allocated_type), (), name)
        self.allocated_type = allocated_type

    def clone(self) -> "AllocaInst":
        new = AllocaInst(self.allocated_type, self.name)
        new.metadata = dict(self.metadata)
        return new


class LoadInst(Instruction):
    """Load a value of the pointee type from a pointer."""

    def __init__(self, pointer: Value, name: str = "") -> None:
        ptr_type = pointer.type
        if not isinstance(ptr_type, PointerType):
            raise TypeError(f"load requires a pointer operand, got {ptr_type}")
        super().__init__(Opcode.LOAD, ptr_type.pointee, (pointer,), name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class StoreInst(Instruction):
    """Store ``value`` through ``pointer``.  Produces no result."""

    def __init__(self, value: Value, pointer: Value) -> None:
        super().__init__(Opcode.STORE, VOID, (value, pointer))

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


class GEPInst(Instruction):
    """``getelementptr`` — pointer arithmetic over arrays and structs.

    The result is ``base + sum(index_i * scale_i)`` in the flat byte memory
    model; the result type records the pointee for type checking.
    """

    def __init__(self, base: Value, indices: Sequence[Value],
                 result_pointee: Type, name: str = "") -> None:
        if not isinstance(base.type, PointerType):
            raise TypeError(f"gep requires a pointer base, got {base.type}")
        super().__init__(Opcode.GEP, PointerType(result_pointee),
                         (base, *indices), name)

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> List[Value]:
        return list(self.operands[1:])

    def clone(self) -> "GEPInst":
        ptr_type = self.type
        assert isinstance(ptr_type, PointerType)
        new = GEPInst(self.base, self.indices, ptr_type.pointee, self.name)
        new.metadata = dict(self.metadata)
        return new


# --------------------------------------------------------------------------
# Calls
# --------------------------------------------------------------------------
class CallInst(Instruction):
    """Direct call to a function.  The callee is operand 0."""

    def __init__(self, callee: Value, args: Sequence[Value],
                 return_type: Type, name: str = "") -> None:
        super().__init__(Opcode.CALL, return_type, (callee, *args), name)

    @property
    def callee(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> List[Value]:
        return list(self.operands[1:])

    def clone(self) -> "CallInst":
        new = CallInst(self.callee, self.args, self.type, self.name)
        new.metadata = dict(self.metadata)
        return new


# --------------------------------------------------------------------------
# Control flow
# --------------------------------------------------------------------------
class BranchInst(Instruction):
    """Conditional or unconditional branch."""

    def __init__(self, target: "BasicBlock",
                 condition: Optional[Value] = None,
                 false_target: Optional["BasicBlock"] = None) -> None:
        if condition is None:
            super().__init__(Opcode.BR, VOID, (target,))
        else:
            if false_target is None:
                raise ValueError("conditional branch needs a false target")
            super().__init__(Opcode.BR, VOID, (condition, target, false_target))

    @property
    def is_conditional(self) -> bool:
        return len(self.operands) == 3

    @property
    def condition(self) -> Value:
        if not self.is_conditional:
            raise ValueError("unconditional branch has no condition")
        return self.operands[0]

    @property
    def true_target(self) -> "BasicBlock":
        return self.operands[1] if self.is_conditional else self.operands[0]

    @property
    def false_target(self) -> "BasicBlock":
        if not self.is_conditional:
            raise ValueError("unconditional branch has no false target")
        return self.operands[2]

    def successors(self) -> List["BasicBlock"]:
        if self.is_conditional:
            return [self.operands[1], self.operands[2]]
        return [self.operands[0]]


class SwitchInst(Instruction):
    """``switch value, default [case0: block0, ...]``."""

    def __init__(self, value: Value, default: "BasicBlock",
                 cases: Sequence[Tuple[Constant, "BasicBlock"]] = ()) -> None:
        operands: List[Value] = [value, default]
        for const, block in cases:
            operands.append(const)
            operands.append(block)
        super().__init__(Opcode.SWITCH, VOID, operands)

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def default(self) -> "BasicBlock":
        return self.operands[1]

    def cases(self) -> List[Tuple[Constant, "BasicBlock"]]:
        result = []
        for i in range(2, len(self.operands), 2):
            result.append((self.operands[i], self.operands[i + 1]))
        return result

    def successors(self) -> List["BasicBlock"]:
        return [self.default] + [block for _, block in self.cases()]


class ReturnInst(Instruction):
    """Return from the current function, optionally with a value."""

    def __init__(self, value: Optional[Value] = None) -> None:
        operands = (value,) if value is not None else ()
        super().__init__(Opcode.RET, VOID, operands)

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def successors(self) -> List["BasicBlock"]:
        return []


class UnreachableInst(Instruction):
    """Marks a point that must never be reached (e.g. after a failed check)."""

    def __init__(self) -> None:
        super().__init__(Opcode.UNREACHABLE, VOID, ())

    def successors(self) -> List["BasicBlock"]:
        return []


class PhiInst(Instruction):
    """SSA phi node: selects a value based on the predecessor block."""

    def __init__(self, ty: Type, name: str = "") -> None:
        super().__init__(Opcode.PHI, ty, (), name)
        self.incoming_blocks: List["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        self.append_operand(value)
        self.incoming_blocks.append(block)
        if self.parent is not None:
            self.parent.bump_ir_epoch()

    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_value_for(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming():
            if pred is block:
                return value
        raise KeyError(f"phi {self.ref()} has no incoming value for {block.name}")

    def remove_incoming(self, block: "BasicBlock") -> None:
        """Remove the incoming entry for ``block`` (if present)."""
        for i, pred in enumerate(self.incoming_blocks):
            if pred is block:
                op = self.operands[i]
                op.remove_use(self, i)
                del self.operands[i]
                del self.incoming_blocks[i]
                # Re-register remaining uses with shifted indices.
                for j in range(i, len(self.operands)):
                    self.operands[j].remove_use(self, j + 1)
                    self.operands[j].add_use(self, j)
                if self.parent is not None:
                    self.parent.bump_ir_epoch()
                return

    def clone(self) -> "PhiInst":
        new = PhiInst(self.type, self.name)
        for value, block in self.incoming():
            new.add_incoming(value, block)
        new.metadata = dict(self.metadata)
        return new
