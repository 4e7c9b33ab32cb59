"""Loop unswitching.

"Another example is loop unswitching, as seen in Section 1" — the paper's
motivating example relies on it: the loop-invariant condition ``any != 0`` is
moved out of the loop and two specialized copies of the loop body are
emitted.  This turns O(3^n) explored paths into O(2^n) for the wc kernel.

The implementation clones the whole loop, replaces the invariant conditional
branch with an unconditional branch to its *true* target in the original and
to its *false* target in the clone, and makes the preheader branch on the
invariant condition to select between the two specialized loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis import AnalysisManager, Loop
from ..ir import (
    BinaryInst, BranchInst, CastInst, ConstantInt, Function, ICmpInst,
    Instruction, Value,
)
from .loop_utils import (
    add_cloned_incoming_to_exit_phis, can_insert_lcssa_phis, clone_loop,
    ensure_preheader, insert_lcssa_phis, loop_size, single_exit_block,
)
from .pass_manager import Pass


@dataclass
class UnswitchParams:
    """Cost model for unswitching."""

    #: Maximum loop size (instructions) that may be duplicated.  CPU-oriented
    #: pipelines keep this small to limit code growth; -OVERIFY raises it.
    max_loop_size: int = 64
    #: Maximum number of unswitching steps applied to one function per run
    #: (each step doubles part of the code).
    max_unswitches_per_function: int = 8


def _is_hoistable_condition(loop: Loop, condition: Value) -> bool:
    """True when ``condition`` is computed inside the loop but only from
    loop-invariant values by a pure instruction, so it can be hoisted to the
    preheader as part of unswitching (what LLVM's unswitcher does too)."""
    if not isinstance(condition, (ICmpInst, BinaryInst, CastInst)):
        return False
    if not loop.contains_instruction(condition):
        return False
    return all(loop.is_invariant(op) for op in condition.operands)


def _find_invariant_branch(loop: Loop) -> Optional[BranchInst]:
    """The first conditional branch inside the loop whose condition is
    loop-invariant (or trivially hoistable) and not a constant."""
    for block in loop.blocks:
        term = block.terminator
        if isinstance(term, BranchInst) and term.is_conditional:
            condition = term.condition
            if isinstance(condition, ConstantInt):
                continue
            if loop.is_invariant(condition) or \
                    _is_hoistable_condition(loop, condition):
                # Both targets must stay inside the loop; unswitching an
                # exiting branch is a different transformation (loop
                # rotation / peeling) that we do not perform here.
                if loop.contains(term.true_target) and \
                        loop.contains(term.false_target):
                    return term
    return None


class LoopUnswitching(Pass):
    """Hoist loop-invariant conditions out of loops by duplicating the loop."""

    name = "loop-unswitch"

    def __init__(self, params: Optional[UnswitchParams] = None) -> None:
        super().__init__()
        self.params = params or UnswitchParams()

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> bool:
        if function.is_declaration:
            return False
        epoch = function.ir_epoch
        for _ in range(self.params.max_unswitches_per_function):
            # Each successful unswitch bumps the function epoch, so this
            # re-request transparently recomputes; otherwise it is a hit.
            loop_info = analyses.loop_info(function)
            unswitched = False
            for loop in loop_info.loops:
                if loop_size(loop) > self.params.max_loop_size:
                    continue
                if self._unswitch(function, loop, analyses):
                    self.stats.loops_unswitched += 1
                    unswitched = True
                    break  # loop structures changed; recompute LoopInfo
            if not unswitched:
                break
        return function.ir_epoch != epoch

    def _unswitch(self, function: Function, loop: Loop,
                  analyses: AnalysisManager) -> bool:
        branch = _find_invariant_branch(loop)
        if branch is None or branch.true_target is branch.false_target:
            return False
        exit_block = single_exit_block(loop)
        if exit_block is None:
            return False
        condition = branch.condition
        # The preheader's new branch tests the condition.  One computed in
        # the loop (from invariant operands only) moves there first; one
        # defined outside dominates its use in the loop, so the header too.
        hoisted = isinstance(condition, Instruction) and \
            loop.contains_instruction(condition)
        if not can_insert_lcssa_phis(loop, exit_block,
                                     analyses.dominator_tree(function)):
            return False
        # Every precondition holds: the first edit commits to the unswitch.
        preheader = ensure_preheader(loop)
        if preheader is None:
            return False
        if hoisted:
            condition.parent.remove_instruction(condition)
            preheader.insert_before(preheader.terminator, condition)
        insert_lcssa_phis(loop, exit_block, analyses.dominator_tree(function))

        cloned = clone_loop(loop, "unsw")
        add_cloned_incoming_to_exit_phis(loop, [exit_block], cloned)

        # Original copy: the invariant condition is treated as true.
        true_target = branch.true_target
        false_target = branch.false_target
        owner = branch.parent
        assert owner is not None
        branch.erase_from_parent()
        owner.append_instruction(BranchInst(true_target))
        false_target.remove_predecessor(owner)

        # Cloned copy: the invariant condition is treated as false.
        cloned_owner = cloned.mapped_block(owner)
        cloned_term = cloned_owner.terminator
        if isinstance(cloned_term, BranchInst) and cloned_term.is_conditional:
            cloned_true = cloned_term.true_target
            cloned_false = cloned_term.false_target
            cloned_term.erase_from_parent()
            cloned_owner.append_instruction(BranchInst(cloned_false))
            cloned_true.remove_predecessor(cloned_owner)

        # Preheader now selects between the two specialized loops.
        preheader_term = preheader.terminator
        assert isinstance(preheader_term, BranchInst)
        original_header = loop.header
        cloned_header = cloned.mapped_block(original_header)
        preheader_term.erase_from_parent()
        preheader.append_instruction(
            BranchInst(original_header, condition, cloned_header))
        # Header phis of the original keep their preheader incoming; the
        # cloned header phis already reference the preheader as well (the
        # preheader is outside the loop, so cloning left it in place).
        return True


from .registry import int_param, register_pass

register_pass(
    "loop-unswitch", lambda **params: LoopUnswitching(UnswitchParams(**params)),
    params=[
        int_param("size", "max_loop_size", UnswitchParams),
        int_param("max", "max_unswitches_per_function", UnswitchParams),
    ],
    description="hoist invariant conditions out of loops by duplication")
