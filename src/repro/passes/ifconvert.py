"""If-conversion: turn conditional control flow into branch-free selects.

This is the transformation the paper's motivating example hinges on
(Listing 2): "Control flow can be further simplified by transforming
conditionally executed side-effect-free statements into speculative
branch-free versions ... When using -OVERIFY, this simplification is pursued
more aggressively, because the cost of a branch is higher."

The pass recognizes two shapes ending at a join block ``D``:

* diamond:  A -> {B, C} -> D       (both arms empty of side effects)
* triangle: A -> {B, D},  B -> D   (one arm)

and rewrites them by speculating the arms' instructions into ``A`` and
replacing the join phis with ``select`` instructions.  The number of
instructions it is willing to speculate is the knob that distinguishes a
CPU-oriented pipeline (``-O3``: branches are cheap, speculate almost
nothing) from -OVERIFY (branches are very expensive, speculate a lot).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis import AnalysisManager, PreservedAnalyses, is_speculatable
from ..ir import (
    BasicBlock, BranchInst, Function, Instruction, LoadInst, SelectInst, Value,
)
from .pass_manager import Pass


@dataclass
class IfConversionParams:
    """Cost model for if-conversion."""

    #: Maximum number of instructions to speculate per converted branch.
    #: A CPU-oriented compiler keeps this tiny; -OVERIFY raises it a lot.
    max_speculated_instructions: int = 2
    #: Whether loads may be speculated at all; :func:`is_speculatable`
    #: still admits only in-bounds loads of a stack slot or global.
    speculate_safe_loads: bool = True


def _speculatable_body(block: BasicBlock,
                       params: IfConversionParams) -> Optional[List[Instruction]]:
    """Return the block's non-terminator instructions if every one of them is
    speculatable (:func:`is_speculatable`, and a load only under
    ``safe-loads``) and the block ends in an unconditional branch."""
    term = block.terminator
    if not isinstance(term, BranchInst) or term.is_conditional:
        return None
    body = [inst for inst in block.instructions if inst is not term]
    if len(body) > params.max_speculated_instructions:
        return None
    for inst in body:
        if not is_speculatable(inst) or (
                isinstance(inst, LoadInst) and not params.speculate_safe_loads):
            return None
    return body


class IfConversion(Pass):
    """Convert diamonds and triangles into straight-line code with selects."""

    name = "ifconvert"

    def __init__(self, params: Optional[IfConversionParams] = None) -> None:
        super().__init__()
        self.params = params or IfConversionParams()

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> PreservedAnalyses:
        if function.is_declaration:
            return PreservedAnalyses.unchanged()
        changed = False
        progress = True
        while progress:
            progress = False
            for block in list(function.blocks):
                if self._try_convert(function, block):
                    self.stats.branches_converted += 1
                    progress = True
                    changed = True
                    break
        # Conversion deletes whole blocks and rewrites branches.
        return PreservedAnalyses.none() if changed \
            else PreservedAnalyses.unchanged()

    # ------------------------------------------------------------ patterns
    def _try_convert(self, function: Function, block: BasicBlock) -> bool:
        term = block.terminator
        if not isinstance(term, BranchInst) or not term.is_conditional:
            return False
        true_block = term.true_target
        false_block = term.false_target
        if true_block is false_block:
            return False

        # Diamond: both arms are side-effect-free single-pred blocks that
        # jump to the same join.
        if self._single_pred(true_block, block) and \
                self._single_pred(false_block, block):
            true_body = _speculatable_body(true_block, self.params)
            false_body = _speculatable_body(false_block, self.params)
            if true_body is not None and false_body is not None:
                true_succ = true_block.successors()
                false_succ = false_block.successors()
                if len(true_succ) == 1 and true_succ == false_succ:
                    join = true_succ[0]
                    if join is not block:
                        self._convert_diamond(block, term, true_block,
                                              false_block, true_body,
                                              false_body, join)
                        return True

        # Triangle with the arm on the true edge: A -> {B, D}, B -> D.
        for arm, other, arm_on_true in ((true_block, false_block, True),
                                        (false_block, true_block, False)):
            if not self._single_pred(arm, block):
                continue
            body = _speculatable_body(arm, self.params)
            if body is None:
                continue
            succ = arm.successors()
            if len(succ) == 1 and succ[0] is other and other is not block:
                self._convert_triangle(block, term, arm, other, body,
                                       arm_on_true)
                return True
        return False

    @staticmethod
    def _single_pred(block: BasicBlock, expected: BasicBlock) -> bool:
        preds = block.predecessors()
        return len(preds) == 1 and preds[0] is expected and not block.phis()

    # ------------------------------------------------------------ rewrites
    def _convert_diamond(self, block: BasicBlock, term: BranchInst,
                         true_block: BasicBlock, false_block: BasicBlock,
                         true_body: List[Instruction],
                         false_body: List[Instruction],
                         join: BasicBlock) -> None:
        condition = term.condition
        function = block.parent
        assert function is not None
        # Hoist both arms into the predecessor, before its terminator.
        for inst in true_body + false_body:
            inst.parent.remove_instruction(inst)  # type: ignore[union-attr]
            block.insert_before(term, inst)
        # Replace the join's phis with selects computed in the predecessor.
        for phi in list(join.phis()):
            true_value = phi.incoming_value_for(true_block)
            false_value = phi.incoming_value_for(false_block)
            if true_value is false_value:
                select: Value = true_value
            else:
                select_inst = SelectInst(condition, true_value, false_value,
                                         function.next_name("spec"))
                block.insert_before(term, select_inst)
                select = select_inst
            phi.remove_incoming(true_block)
            phi.remove_incoming(false_block)
            phi.add_incoming(select, block)
        term.erase_from_parent()
        block.append_instruction(BranchInst(join))
        self._erase_block(true_block)
        self._erase_block(false_block)

    def _convert_triangle(self, block: BasicBlock, term: BranchInst,
                          arm: BasicBlock, join: BasicBlock,
                          body: List[Instruction], arm_on_true: bool) -> None:
        condition = term.condition
        function = block.parent
        assert function is not None
        for inst in body:
            inst.parent.remove_instruction(inst)  # type: ignore[union-attr]
            block.insert_before(term, inst)
        for phi in list(join.phis()):
            arm_value = phi.incoming_value_for(arm)
            direct_value = phi.incoming_value_for(block)
            if arm_value is direct_value:
                select: Value = arm_value
            else:
                if arm_on_true:
                    select_inst = SelectInst(condition, arm_value, direct_value,
                                             function.next_name("spec"))
                else:
                    select_inst = SelectInst(condition, direct_value, arm_value,
                                             function.next_name("spec"))
                block.insert_before(term, select_inst)
                select = select_inst
            phi.remove_incoming(arm)
            phi.remove_incoming(block)
            phi.add_incoming(select, block)
        term.erase_from_parent()
        block.append_instruction(BranchInst(join))
        self._erase_block(arm)

    @staticmethod
    def _erase_block(block: BasicBlock) -> None:
        function = block.parent
        for inst in list(block.instructions):
            inst.drop_all_references()
            inst.parent = None
        block.instructions = []
        if function is not None:
            function.remove_block(block)


from .registry import flag_param, int_param, register_pass

register_pass(
    "ifconvert", lambda **params: IfConversion(IfConversionParams(**params)),
    params=[
        int_param("spec", "max_speculated_instructions", IfConversionParams),
        flag_param("safe-loads", "speculate_safe_loads", IfConversionParams),
    ],
    description="convert diamonds/triangles into branch-free selects")
