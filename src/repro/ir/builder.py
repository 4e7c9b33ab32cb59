"""IRBuilder: a convenience API for constructing instructions.

The builder keeps an insertion point (a basic block, and optionally a
position within it) and offers one method per instruction kind.  It also
performs trivial constant folding so that front ends do not emit obviously
redundant IR; full folding is left to the optimization passes.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .basicblock import BasicBlock
from .function import Function
from .instructions import (
    AllocaInst, BinaryInst, BranchInst, CallInst, CastInst, GEPInst, ICmpInst,
    ICmpPredicate, Instruction, LoadInst, Opcode, PhiInst, ReturnInst,
    SelectInst, StoreInst, SwitchInst, UnreachableInst,
)
from .types import IntType, PointerType, Type, I1, I64
from .values import Constant, ConstantInt, Value


class IRBuilder:
    """Builds instructions at a current insertion point."""

    def __init__(self, block: Optional[BasicBlock] = None) -> None:
        self.block = block
        self._insert_index: Optional[int] = None

    # ------------------------------------------------------------ position
    def set_insert_point(self, block: BasicBlock,
                         index: Optional[int] = None) -> None:
        """Insert at the end of ``block`` or before position ``index``."""
        self.block = block
        self._insert_index = index

    @property
    def function(self) -> Function:
        assert self.block is not None and self.block.parent is not None
        return self.block.parent

    def _insert(self, inst: Instruction, name: str = "") -> Instruction:
        assert self.block is not None, "no insertion point set"
        if name and not inst.name:
            inst.name = name
        elif not inst.name and not inst.type.is_void:
            inst.name = self.function.next_name()
        if self._insert_index is None:
            self.block.append_instruction(inst)
        else:
            self.block.insert_instruction(self._insert_index, inst)
            self._insert_index += 1
        return inst

    # ------------------------------------------------------------ constants
    @staticmethod
    def true() -> ConstantInt:
        return ConstantInt(I1, 1)

    @staticmethod
    def false() -> ConstantInt:
        return ConstantInt(I1, 0)

    # ------------------------------------------------------------ arithmetic
    def _binary(self, opcode: Opcode, lhs: Value, rhs: Value,
                name: str = "") -> Value:
        folded = _fold_binary(opcode, lhs, rhs)
        if folded is not None:
            return folded
        return self._insert(BinaryInst(opcode, lhs, rhs), name)

    def add(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._binary(Opcode.ADD, lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._binary(Opcode.SUB, lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._binary(Opcode.MUL, lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._binary(Opcode.SDIV, lhs, rhs, name)

    def udiv(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._binary(Opcode.UDIV, lhs, rhs, name)

    def srem(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._binary(Opcode.SREM, lhs, rhs, name)

    def urem(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._binary(Opcode.UREM, lhs, rhs, name)

    def and_(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._binary(Opcode.AND, lhs, rhs, name)

    def or_(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._binary(Opcode.OR, lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._binary(Opcode.XOR, lhs, rhs, name)

    def shl(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._binary(Opcode.SHL, lhs, rhs, name)

    def lshr(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._binary(Opcode.LSHR, lhs, rhs, name)

    def ashr(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._binary(Opcode.ASHR, lhs, rhs, name)

    def neg(self, value: Value, name: str = "") -> Value:
        ity = value.type
        assert isinstance(ity, IntType)
        return self.sub(ConstantInt(ity, 0), value, name)

    def not_(self, value: Value, name: str = "") -> Value:
        ity = value.type
        assert isinstance(ity, IntType)
        return self.xor(value, ConstantInt(ity, ity.mask), name)

    # ------------------------------------------------------------ comparison
    def icmp(self, predicate: ICmpPredicate, lhs: Value, rhs: Value,
             name: str = "") -> Value:
        if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
            return ConstantInt(I1, 1 if _eval_icmp(predicate, lhs, rhs) else 0)
        return self._insert(ICmpInst(predicate, lhs, rhs), name)

    def icmp_eq(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.icmp(ICmpPredicate.EQ, lhs, rhs, name)

    def icmp_ne(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.icmp(ICmpPredicate.NE, lhs, rhs, name)

    def select(self, condition: Value, true_value: Value, false_value: Value,
               name: str = "") -> Value:
        if isinstance(condition, ConstantInt):
            return true_value if condition.value else false_value
        return self._insert(SelectInst(condition, true_value, false_value), name)

    # ------------------------------------------------------------ casts
    def zext(self, value: Value, to_type: IntType, name: str = "") -> Value:
        if value.type == to_type:
            return value
        if isinstance(value, ConstantInt):
            return ConstantInt(to_type, value.value)
        return self._insert(CastInst(Opcode.ZEXT, value, to_type), name)

    def sext(self, value: Value, to_type: IntType, name: str = "") -> Value:
        if value.type == to_type:
            return value
        if isinstance(value, ConstantInt):
            return ConstantInt(to_type, value.signed_value)
        return self._insert(CastInst(Opcode.SEXT, value, to_type), name)

    def trunc(self, value: Value, to_type: IntType, name: str = "") -> Value:
        if value.type == to_type:
            return value
        if isinstance(value, ConstantInt):
            return ConstantInt(to_type, value.value)
        return self._insert(CastInst(Opcode.TRUNC, value, to_type), name)

    def ptrtoint(self, value: Value, to_type: IntType = I64, name: str = "") -> Value:
        return self._insert(CastInst(Opcode.PTRTOINT, value, to_type), name)

    def inttoptr(self, value: Value, to_type: PointerType, name: str = "") -> Value:
        return self._insert(CastInst(Opcode.INTTOPTR, value, to_type), name)

    def bitcast(self, value: Value, to_type: Type, name: str = "") -> Value:
        if value.type == to_type:
            return value
        return self._insert(CastInst(Opcode.BITCAST, value, to_type), name)

    def int_cast(self, value: Value, to_type: IntType, signed: bool,
                 name: str = "") -> Value:
        """Resize an integer value to ``to_type`` using the natural cast."""
        from_type = value.type
        assert isinstance(from_type, IntType)
        if from_type.width == to_type.width:
            return value
        if from_type.width > to_type.width:
            return self.trunc(value, to_type, name)
        if signed:
            return self.sext(value, to_type, name)
        return self.zext(value, to_type, name)

    # ------------------------------------------------------------ memory
    def alloca(self, allocated_type: Type, name: str = "") -> AllocaInst:
        inst = self._insert(AllocaInst(allocated_type), name)
        assert isinstance(inst, AllocaInst)
        return inst

    def load(self, pointer: Value, name: str = "") -> Value:
        return self._insert(LoadInst(pointer), name)

    def store(self, value: Value, pointer: Value) -> StoreInst:
        inst = self._insert(StoreInst(value, pointer))
        assert isinstance(inst, StoreInst)
        return inst

    def gep(self, base: Value, indices: Sequence[Value], result_pointee: Type,
            name: str = "") -> Value:
        return self._insert(GEPInst(base, indices, result_pointee), name)

    # ------------------------------------------------------------ calls
    def call(self, callee: Function, args: Sequence[Value], name: str = "") -> Value:
        return self._insert(CallInst(callee, args, callee.return_type), name)

    # ------------------------------------------------------------ control
    def br(self, target: BasicBlock) -> BranchInst:
        inst = self._insert(BranchInst(target))
        assert isinstance(inst, BranchInst)
        return inst

    def cond_br(self, condition: Value, true_target: BasicBlock,
                false_target: BasicBlock) -> BranchInst:
        inst = self._insert(BranchInst(true_target, condition, false_target))
        assert isinstance(inst, BranchInst)
        return inst

    def switch(self, value: Value, default: BasicBlock,
               cases: Sequence[Tuple[Constant, BasicBlock]] = ()) -> SwitchInst:
        inst = self._insert(SwitchInst(value, default, cases))
        assert isinstance(inst, SwitchInst)
        return inst

    def ret(self, value: Optional[Value] = None) -> ReturnInst:
        inst = self._insert(ReturnInst(value))
        assert isinstance(inst, ReturnInst)
        return inst

    def unreachable(self) -> UnreachableInst:
        inst = self._insert(UnreachableInst())
        assert isinstance(inst, UnreachableInst)
        return inst

    def phi(self, ty: Type, name: str = "") -> PhiInst:
        inst = self._insert(PhiInst(ty), name)
        assert isinstance(inst, PhiInst)
        return inst


# --------------------------------------------------------------------------
# Constant folding helpers (shared with the SCCP/instcombine passes)
# --------------------------------------------------------------------------
def _truncdiv(a: int, b: int) -> int:
    """C-style signed division: truncate toward zero.

    Not ``int(a / b)`` — float division is only exact below 2**53, so it
    silently mis-rounds 64-bit ``long`` quotients; not ``a // b`` either,
    which floors toward negative infinity.
    """
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def eval_binary(opcode: Opcode, ty: IntType, lhs: int, rhs: int) -> Optional[int]:
    """Evaluate a binary opcode over two unsigned ``ty`` values.

    Returns ``None`` for division/remainder by zero, which the IR treats as an
    error detected at run time.
    """
    mask = ty.mask

    def signed(v: int) -> int:
        return v - (1 << ty.width) if v & ty.sign_bit else v

    if opcode is Opcode.ADD:
        return (lhs + rhs) & mask
    if opcode is Opcode.SUB:
        return (lhs - rhs) & mask
    if opcode is Opcode.MUL:
        return (lhs * rhs) & mask
    if opcode is Opcode.AND:
        return lhs & rhs
    if opcode is Opcode.OR:
        return lhs | rhs
    if opcode is Opcode.XOR:
        return lhs ^ rhs
    if opcode is Opcode.SHL:
        shift = rhs % ty.width
        return (lhs << shift) & mask
    if opcode is Opcode.LSHR:
        shift = rhs % ty.width
        return lhs >> shift
    if opcode is Opcode.ASHR:
        shift = rhs % ty.width
        return (signed(lhs) >> shift) & mask
    if opcode is Opcode.UDIV:
        if rhs == 0:
            return None
        return (lhs // rhs) & mask
    if opcode is Opcode.UREM:
        if rhs == 0:
            return None
        return (lhs % rhs) & mask
    if opcode is Opcode.SDIV:
        if rhs == 0:
            return None
        return _truncdiv(signed(lhs), signed(rhs)) & mask
    if opcode is Opcode.SREM:
        if rhs == 0:
            return None
        slhs, srhs = signed(lhs), signed(rhs)
        return (slhs - _truncdiv(slhs, srhs) * srhs) & mask
    raise ValueError(f"not a binary opcode: {opcode}")


def eval_icmp(predicate: ICmpPredicate, ty: IntType, lhs: int, rhs: int) -> bool:
    """Evaluate an icmp predicate over two unsigned ``ty`` values."""

    def signed(v: int) -> int:
        return v - (1 << ty.width) if v & ty.sign_bit else v

    if predicate is ICmpPredicate.EQ:
        return lhs == rhs
    if predicate is ICmpPredicate.NE:
        return lhs != rhs
    if predicate is ICmpPredicate.ULT:
        return lhs < rhs
    if predicate is ICmpPredicate.ULE:
        return lhs <= rhs
    if predicate is ICmpPredicate.UGT:
        return lhs > rhs
    if predicate is ICmpPredicate.UGE:
        return lhs >= rhs
    if predicate is ICmpPredicate.SLT:
        return signed(lhs) < signed(rhs)
    if predicate is ICmpPredicate.SLE:
        return signed(lhs) <= signed(rhs)
    if predicate is ICmpPredicate.SGT:
        return signed(lhs) > signed(rhs)
    if predicate is ICmpPredicate.SGE:
        return signed(lhs) >= signed(rhs)
    raise ValueError(f"unknown predicate {predicate}")


def _fold_binary(opcode: Opcode, lhs: Value, rhs: Value) -> Optional[Value]:
    if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
        ty = lhs.type
        assert isinstance(ty, IntType)
        result = eval_binary(opcode, ty, lhs.value, rhs.value)
        if result is not None:
            return ConstantInt(ty, result)
    return None


def _eval_icmp(predicate: ICmpPredicate, lhs: ConstantInt,
               rhs: ConstantInt) -> bool:
    ty = lhs.type
    assert isinstance(ty, IntType)
    return eval_icmp(predicate, ty, lhs.value, rhs.value)
