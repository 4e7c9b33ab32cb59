"""Loop-invariant code motion.

Hoists computations that do not change across iterations into the loop's
preheader.  For a symbolic executor this removes work that would otherwise
be re-interpreted (and re-encoded into constraints) on every iteration of
every explored path.
"""

from __future__ import annotations

from ..analysis import AnalysisManager, Loop, is_speculatable
from ..ir import CallInst, Function, Instruction, LoadInst, Opcode, StoreInst
from .loop_utils import ensure_preheader
from .pass_manager import Pass


def _loop_has_stores_or_calls(loop: Loop) -> bool:
    for block in loop.blocks:
        for inst in block.instructions:
            if isinstance(inst, (StoreInst, CallInst)):
                return True
    return False


class LoopInvariantCodeMotion(Pass):
    """Hoist loop-invariant pure instructions to the preheader."""

    name = "licm"

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> bool:
        if function.is_declaration:
            return False
        epoch = function.ir_epoch
        loop_info = analyses.loop_info(function)
        # Process inner loops first so invariants bubble outward.
        for loop in sorted(loop_info.loops, key=lambda l: -l.depth):
            self._hoist(loop)
        return function.ir_epoch != epoch

    def _hoist(self, loop: Loop) -> None:
        loop_writes_memory = _loop_has_stores_or_calls(loop)
        # A loop with nothing to hoist gets no preheader either.
        if not any(self._hoistable(inst, loop, loop_writes_memory)
                   for block in loop.blocks for inst in block.instructions):
            return
        preheader = ensure_preheader(loop)
        if preheader is None:
            return
        terminator = preheader.terminator
        progress = True
        while progress:
            progress = False
            for block in loop.blocks:
                for inst in list(block.instructions):
                    if not self._hoistable(inst, loop, loop_writes_memory):
                        continue
                    # Hoisting is only valid if the definition dominates every
                    # use after the move; the preheader dominates the whole
                    # loop, so this always holds for in-loop uses.
                    block.remove_instruction(inst)
                    preheader.insert_before(terminator, inst)
                    self.stats.instructions_hoisted += 1
                    progress = True

    def _hoistable(self, inst: Instruction, loop: Loop,
                   loop_writes_memory: bool) -> bool:
        """Speculatable (:func:`is_speculatable`: the hoisted copy runs even
        on entries that skip the loop body), not an alloca, not a load in a
        loop that writes memory, and computed from invariant operands."""
        if inst.opcode is Opcode.ALLOCA or \
                (loop_writes_memory and isinstance(inst, LoadInst)) or \
                not is_speculatable(inst):
            return False
        return all(loop.is_invariant(op) for op in inst.operands)


from .registry import register_pass

register_pass(
    "licm", LoopInvariantCodeMotion,
    description="hoist loop-invariant computations into the preheader")
