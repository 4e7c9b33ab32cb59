"""Instruction combining: algebraic simplification and peephole rewrites.

This pass implements the "arithmetic simplifications" half of the paper's
first Table 2 row, plus the peepholes needed to clean up the verbose boolean
code the MiniC front end emits (``zext i1 -> icmp ne 0`` chains).  Removing
these redundant operations shrinks the constraint expressions the symbolic
executor must build — one of the effects the paper credits for the ``-O2``
speedup in Table 1.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import AnalysisManager, PreservedAnalyses
from ..ir import (
    BinaryInst, CastInst, ConstantInt, Function, ICmpInst, ICmpPredicate,
    Instruction, IntType, Opcode, SelectInst, Value,
)
from .constprop import fold_instruction
from .pass_manager import Pass, insert_before, replace_to_fixpoint


def _constant(value: Value) -> Optional[ConstantInt]:
    return value if isinstance(value, ConstantInt) else None


def _simplify_binary(inst: BinaryInst) -> Optional[Value]:
    """Algebraic identities on binary operators."""
    lhs, rhs = inst.lhs, inst.rhs
    clhs, crhs = _constant(lhs), _constant(rhs)
    ty = inst.type
    assert isinstance(ty, IntType)
    op = inst.opcode

    # Canonical zero/identity element simplifications.
    if op is Opcode.ADD:
        if crhs is not None and crhs.is_zero:
            return lhs
        if clhs is not None and clhs.is_zero:
            return rhs
    elif op is Opcode.SUB:
        if crhs is not None and crhs.is_zero:
            return lhs
        if lhs is rhs:
            return ConstantInt(ty, 0)
    elif op is Opcode.MUL:
        if crhs is not None:
            if crhs.is_zero:
                return ConstantInt(ty, 0)
            if crhs.is_one:
                return lhs
        if clhs is not None:
            if clhs.is_zero:
                return ConstantInt(ty, 0)
            if clhs.is_one:
                return rhs
    elif op in (Opcode.UDIV, Opcode.SDIV):
        if crhs is not None and crhs.is_one:
            return lhs
    elif op in (Opcode.UREM, Opcode.SREM):
        if crhs is not None and crhs.is_one:
            return ConstantInt(ty, 0)
    elif op is Opcode.AND:
        if crhs is not None:
            if crhs.is_zero:
                return ConstantInt(ty, 0)
            if crhs.is_all_ones:
                return lhs
        if clhs is not None:
            if clhs.is_zero:
                return ConstantInt(ty, 0)
            if clhs.is_all_ones:
                return rhs
        if lhs is rhs:
            return lhs
    elif op is Opcode.OR:
        if crhs is not None:
            if crhs.is_zero:
                return lhs
            if crhs.is_all_ones:
                return ConstantInt(ty, ty.mask)
        if clhs is not None:
            if clhs.is_zero:
                return rhs
            if clhs.is_all_ones:
                return ConstantInt(ty, ty.mask)
        if lhs is rhs:
            return lhs
    elif op is Opcode.XOR:
        if crhs is not None and crhs.is_zero:
            return lhs
        if clhs is not None and clhs.is_zero:
            return rhs
        if lhs is rhs:
            return ConstantInt(ty, 0)
    elif op in (Opcode.SHL, Opcode.LSHR, Opcode.ASHR):
        if crhs is not None and crhs.is_zero:
            return lhs
        if clhs is not None and clhs.is_zero:
            return ConstantInt(ty, 0)
    return None


def _simplify_icmp(inst: ICmpInst) -> Optional[Value]:
    """Simplify comparisons, in particular the front end's bool round trips."""
    from ..ir import I1

    lhs, rhs = inst.lhs, inst.rhs
    crhs = _constant(rhs)
    predicate = inst.predicate

    if lhs is rhs:
        always_true = predicate in (ICmpPredicate.EQ, ICmpPredicate.ULE,
                                    ICmpPredicate.UGE, ICmpPredicate.SLE,
                                    ICmpPredicate.SGE)
        return ConstantInt(I1, 1 if always_true else 0)

    # (zext i1 %b to iN) != 0   ->  %b
    # (zext i1 %b to iN) == 0   ->  xor %b, true
    if crhs is not None and crhs.is_zero and isinstance(lhs, CastInst) and \
            lhs.opcode is Opcode.ZEXT and lhs.value.type == I1:
        if predicate is ICmpPredicate.NE:
            return lhs.value
        if predicate is ICmpPredicate.EQ:
            return _invert_bool(inst, lhs.value)

    # (zext i1 %b to iN) == 1 -> %b ; != 1 -> not %b
    if crhs is not None and crhs.is_one and isinstance(lhs, CastInst) and \
            lhs.opcode is Opcode.ZEXT and lhs.value.type == I1:
        if predicate is ICmpPredicate.EQ:
            return lhs.value
        if predicate is ICmpPredicate.NE:
            return _invert_bool(inst, lhs.value)

    # Unsigned comparisons against 0 have trivial answers.
    if crhs is not None and crhs.is_zero:
        if predicate is ICmpPredicate.ULT:
            return ConstantInt(I1, 0)
        if predicate is ICmpPredicate.UGE:
            return ConstantInt(I1, 1)
        if predicate is ICmpPredicate.UGT:
            # x >u 0  <=>  x != 0 : canonicalize to the equality form.
            replacement = ICmpInst(ICmpPredicate.NE, lhs, rhs)
            return _insert_before(inst, replacement)
    return None


def _invert_bool(anchor: Instruction, value: Value) -> Value:
    from ..ir import I1
    inverted = BinaryInst(Opcode.XOR, value, ConstantInt(I1, 1))
    return _insert_before(anchor, inverted)


def _insert_before(anchor: Instruction, new_inst: Instruction) -> Instruction:
    return insert_before(anchor, new_inst, "ic")


def _simplify_cast(inst: CastInst) -> Optional[Value]:
    value = inst.value
    # Cast of a cast: zext(zext x) -> zext x ; trunc(zext x) back to the
    # original width -> x.
    if isinstance(value, CastInst):
        inner = value.value
        if inst.opcode is Opcode.TRUNC and value.opcode in (Opcode.ZEXT,
                                                            Opcode.SEXT):
            if inner.type == inst.type:
                return inner
            inner_ty = inner.type
            if isinstance(inner_ty, IntType) and isinstance(inst.type, IntType) \
                    and inner_ty.width > inst.type.width:
                replacement = CastInst(Opcode.TRUNC, inner, inst.type)
                return _insert_before(inst, replacement)
        if inst.opcode is Opcode.ZEXT and value.opcode is Opcode.ZEXT:
            replacement = CastInst(Opcode.ZEXT, inner, inst.type)
            return _insert_before(inst, replacement)
        if inst.opcode is Opcode.SEXT and value.opcode is Opcode.SEXT:
            replacement = CastInst(Opcode.SEXT, inner, inst.type)
            return _insert_before(inst, replacement)
    if inst.type == value.type and inst.opcode in (Opcode.ZEXT, Opcode.SEXT,
                                                   Opcode.TRUNC,
                                                   Opcode.BITCAST):
        return value
    return None


def _simplify_select(inst: SelectInst) -> Optional[Value]:
    from ..ir import I1

    if inst.true_value is inst.false_value:
        return inst.true_value
    # select c, 1, 0 over i1 is just c; select c, 0, 1 is not c.
    tv, fv = _constant(inst.true_value), _constant(inst.false_value)
    if inst.type == I1 and tv is not None and fv is not None:
        if tv.is_one and fv.is_zero:
            return inst.condition
        if tv.is_zero and fv.is_one:
            return _invert_bool(inst, inst.condition)
    return None


class InstCombine(Pass):
    """Peephole algebraic simplification to a local fixpoint."""

    name = "instcombine"

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> PreservedAnalyses:
        if function.is_declaration:
            return PreservedAnalyses.unchanged()
        combined = replace_to_fixpoint(function, self._simplify)
        self.stats.instructions_combined += combined
        if not combined:
            return PreservedAnalyses.unchanged()
        # Peepholes rewrite value computations only, never branch targets.
        return PreservedAnalyses.cfg_preserving()

    def _simplify(self, inst: Instruction) -> Optional[Value]:
        folded = fold_instruction(inst)
        if folded is not None:
            return folded
        if isinstance(inst, BinaryInst):
            return _simplify_binary(inst)
        if isinstance(inst, ICmpInst):
            return _simplify_icmp(inst)
        if isinstance(inst, CastInst):
            return _simplify_cast(inst)
        if isinstance(inst, SelectInst):
            return _simplify_select(inst)
        return None


from .registry import register_pass

register_pass(
    "instcombine", InstCombine,
    description="peephole-combine instruction patterns")
