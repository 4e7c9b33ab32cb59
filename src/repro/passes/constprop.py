"""Constant propagation and folding.

Implements the "Constant propagation/folding, arithmetic simplifications"
row of the paper's Table 2 — marked as beneficial for *both* execution and
verification.  The pass replaces instructions whose operands are all
constants with the computed constant, sweeping to a local fixpoint
(:func:`~repro.passes.pass_manager.replace_to_fixpoint`), which in turn may
make branch conditions constant; SimplifyCFG then deletes the dead arms.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import AnalysisManager
from ..ir import (
    BinaryInst, CastInst, ConstantInt, Function, ICmpInst, Instruction,
    IntType, Opcode, PhiInst, SelectInst, Value, eval_binary, eval_icmp,
)
from .pass_manager import Pass, replace_to_fixpoint


def fold_instruction(inst: Instruction) -> Optional[Value]:
    """Return a constant replacement for ``inst`` if it can be folded."""
    if isinstance(inst, BinaryInst):
        lhs, rhs = inst.lhs, inst.rhs
        if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
            ty = inst.type
            assert isinstance(ty, IntType)
            value = eval_binary(inst.opcode, ty, lhs.value, rhs.value)
            if value is not None:
                return ConstantInt(ty, value)
        return None
    if isinstance(inst, ICmpInst):
        lhs, rhs = inst.lhs, inst.rhs
        if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
            lhs_ty = lhs.type
            assert isinstance(lhs_ty, IntType)
            result = eval_icmp(inst.predicate, lhs_ty, lhs.value, rhs.value)
            from ..ir import I1
            return ConstantInt(I1, 1 if result else 0)
        return None
    if isinstance(inst, SelectInst):
        if isinstance(inst.condition, ConstantInt):
            return inst.true_value if inst.condition.value else inst.false_value
        if inst.true_value is inst.false_value:
            return inst.true_value
        return None
    if isinstance(inst, CastInst):
        value = inst.value
        if isinstance(value, ConstantInt) and isinstance(inst.type, IntType):
            if inst.opcode is Opcode.ZEXT or inst.opcode is Opcode.TRUNC:
                return ConstantInt(inst.type, value.value)
            if inst.opcode is Opcode.SEXT:
                return ConstantInt(inst.type, value.signed_value)
        return None
    if isinstance(inst, PhiInst):
        # A phi whose incoming values are all the same constant is that
        # constant (self-references are ignored, as in LLVM).
        distinct: Optional[Value] = None
        for value, _ in inst.incoming():
            if value is inst:
                continue
            if isinstance(value, ConstantInt):
                if distinct is None:
                    distinct = value
                elif isinstance(distinct, ConstantInt) and \
                        distinct.value == value.value and \
                        distinct.type == value.type:
                    continue
                else:
                    return None
            else:
                return None
        return distinct
    return None


class ConstantPropagation(Pass):
    """Iterative constant folding over every function."""

    name = "constprop"

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> bool:
        if function.is_declaration:
            return False
        folded = replace_to_fixpoint(function, fold_instruction)
        self.stats.instructions_folded += folded
        if not folded:
            return False
        return True


from .registry import register_pass

register_pass(
    "constprop", ConstantPropagation,
    description="fold instructions with constant operands")
