"""Jump threading.

"An optimization called jump threading checks whether a conditional branch
jumps to a location where another condition is subsumed by the first one; if
yes, the first branch is redirected correspondingly, turning two jumps into
one." (§3, Simplifying control flow.)

The implementation handles the common SSA shape: a block whose conditional
branch tests a phi (or a comparison of a phi against a constant).  Every
predecessor that contributes a constant already determines the branch
direction, so its edge is redirected straight to the final target, skipping
the test block — one fewer dynamic branch on that path, and one fewer forked
state for a symbolic executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis import AnalysisManager
from ..ir import (
    BasicBlock, BranchInst, ConstantInt, Function, ICmpInst, Instruction,
    IntType, PhiInst, Value, eval_icmp,
)
from .pass_manager import Pass


def _threadable_condition(block: BasicBlock) -> Optional[Tuple[PhiInst, Optional[ICmpInst]]]:
    """If ``block``'s conditional branch depends only on a local phi (possibly
    through one comparison with a constant), return (phi, icmp)."""
    term = block.terminator
    if not isinstance(term, BranchInst) or not term.is_conditional:
        return None
    condition = term.condition
    if isinstance(condition, PhiInst) and condition.parent is block:
        return condition, None
    if isinstance(condition, ICmpInst) and condition.parent is block:
        lhs, rhs = condition.lhs, condition.rhs
        if isinstance(lhs, PhiInst) and lhs.parent is block and \
                isinstance(rhs, ConstantInt):
            return lhs, condition
    return None


@dataclass
class JumpThreadingParams:
    """Knobs of :class:`JumpThreading`.

    ``unsafe_phi`` disables the outside-use phi check below, re-opening a
    fuzzer-found miscompile (threading past a loop-test block whose phi
    the loop body still uses).  It exists ONLY so the
    translation-validation negative tests can plant a known-bad module
    and assert relcheck catches it; never enable it in a real pipeline."""

    unsafe_phi: bool = False


def _block_is_forwardable(block: BasicBlock, phi: PhiInst,
                          icmp: Optional[ICmpInst],
                          check_outside_uses: bool = True) -> bool:
    """The block may be bypassed only if it computes nothing else."""
    allowed = {id(phi)}
    if icmp is not None:
        allowed.add(id(icmp))
    term = block.terminator
    for inst in block.instructions:
        if inst is term or id(inst) in allowed:
            continue
        if isinstance(inst, PhiInst):
            continue  # other phis merely merge values; they stay in place
        return False
    if not check_outside_uses:
        return True
    # No phi in the block may be used outside it — the threaded phi
    # included.  A threaded edge bypasses the block, so an outside user of
    # any of its phis would need the bypassed value materialized on the
    # new edge (LLVM duplicates the block body for this; we don't), and
    # the block may stop dominating the user altogether, leaving a use of
    # a non-dominating def behind (found by differential fuzzing: a loop
    # counter `i = phi(0, i+1)` tested by the branch *and* incremented in
    # the body was threaded past, turning the increment into `t = add t,
    # 1` once SimplifyCFG folded the orphaned phi).
    for other in block.phis():
        for use in other.uses:
            user = use.user
            if user is icmp:
                continue
            if isinstance(user, Instruction) and user.parent is not block:
                return False
    return True


class JumpThreading(Pass):
    """Redirect predecessor edges over blocks whose branch they determine."""

    name = "jump-threading"

    def __init__(self, params: Optional[JumpThreadingParams] = None) -> None:
        super().__init__()
        self.params = params or JumpThreadingParams()

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> bool:
        if function.is_declaration:
            return False
        changed = False
        progress = True
        while progress:
            progress = False
            for block in list(function.blocks):
                if block is function.entry_block:
                    continue
                if self._thread_block(function, block):
                    progress = True
                    changed = True
                    break
        return changed

    def _thread_block(self, function: Function, block: BasicBlock) -> bool:
        found = _threadable_condition(block)
        if found is None:
            return False
        phi, icmp = found
        if not _block_is_forwardable(
                block, phi, icmp,
                check_outside_uses=not self.params.unsafe_phi):
            return False
        term = block.terminator
        assert isinstance(term, BranchInst)
        changed = False
        for value, pred in list(phi.incoming()):
            if not isinstance(value, ConstantInt):
                continue
            if len(phi.incoming_blocks) <= 1:
                break  # leave the last edge for SimplifyCFG to clean up
            direction = self._evaluate(value, icmp)
            if direction is None:
                continue
            target = term.true_target if direction else term.false_target
            if target is block:
                continue
            # Redirect pred's edge from `block` to `target`.
            pred_term = pred.terminator
            if pred_term is None:
                continue
            # A predecessor reaching `block` over two edges (both arms of its
            # branch) would need value duplication; skip that rare case.
            if sum(1 for op in pred_term.operands if op is block) != 1:
                continue
            # The target's phis need an incoming value for the new edge; it is
            # whatever would have flowed through `block` from `pred`.
            resolvable = True
            target_values: List[Tuple[PhiInst, Value]] = []
            for target_phi in target.phis():
                through = target_phi.incoming_value_for(block)
                if isinstance(through, PhiInst) and through.parent is block:
                    through = through.incoming_value_for(pred)
                elif isinstance(through, Instruction) and through.parent is block:
                    resolvable = False
                    break
                target_values.append((target_phi, through))
            if not resolvable:
                continue
            for index, op in enumerate(pred_term.operands):
                if op is block:
                    pred_term.set_operand(index, target)
            for target_phi, through in target_values:
                target_phi.add_incoming(through, pred)
            for block_phi in block.phis():
                block_phi.remove_incoming(pred)
            self.stats.jumps_threaded += 1
            changed = True
        return changed

    @staticmethod
    def _evaluate(value: ConstantInt, icmp: Optional[ICmpInst]) -> Optional[bool]:
        if icmp is None:
            return bool(value.value)
        rhs = icmp.rhs
        assert isinstance(rhs, ConstantInt)
        ty = value.type
        if not isinstance(ty, IntType):
            return None
        return eval_icmp(icmp.predicate, ty, value.value, rhs.value)


from .registry import flag_param, register_pass

register_pass(
    "jump-threading",
    lambda **params: JumpThreading(JumpThreadingParams(**params)),
    params=[flag_param("unsafe-phi", "unsafe_phi", JumpThreadingParams)],
    description="thread branches over blocks with statically known exits "
                "(unsafe-phi re-opens a known miscompile, for the "
                "relcheck negative tests only)")
