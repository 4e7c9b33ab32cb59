"""Loop-invariant code motion.

Hoists computations that do not change across iterations into the loop's
preheader.  For a symbolic executor this removes work that would otherwise
be re-interpreted (and re-encoded into constraints) on every iteration of
every explored path.
"""

from __future__ import annotations

from typing import List

from ..analysis import (
    AnalysisManager, Loop, PreservedAnalyses, underlying_object,
)
from ..ir import (
    AllocaInst, CallInst, Function, GlobalVariable, Instruction, LoadInst,
    Opcode, PhiInst, StoreInst,
)
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
                        analyses: AnalysisManager) -> PreservedAnalyses:
        if function.is_declaration:
            return PreservedAnalyses.unchanged()
        epoch = function.ir_epoch
        loop_info = analyses.loop_info(function)
        # Process inner loops first so invariants bubble outward.
        for loop in sorted(loop_info.loops, key=lambda l: -l.depth):
            self._hoist(loop)
        # A preheader made for a loop with nothing to hoist is a change like
        # any other: the pass manager may skip a run that reports none.
        return PreservedAnalyses.none() if function.ir_epoch != epoch \
            else PreservedAnalyses.unchanged()

    def _hoist(self, loop: Loop) -> None:
        preheader = ensure_preheader(loop)
        if preheader is None:
            return
        terminator = preheader.terminator
        if terminator is None:
            return
        loop_writes_memory = _loop_has_stores_or_calls(loop)
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
        if isinstance(inst, (PhiInst, StoreInst, CallInst)):
            return False
        if inst.is_terminator or inst.opcode is Opcode.ALLOCA:
            return False
        if inst.opcode in (Opcode.SDIV, Opcode.UDIV, Opcode.SREM, Opcode.UREM):
            return False  # may trap; only safe if executed unconditionally
        if isinstance(inst, LoadInst):
            # A load may be hoisted when nothing in the loop can write to
            # memory and its address is provably inside a known object with a
            # constant offset, so dereferencing it is safe even on iterations
            # the original loop would never have executed.
            if loop_writes_memory:
                return False
            info = underlying_object(inst.pointer)
            if not isinstance(info.base, (AllocaInst, GlobalVariable)):
                return False
            if info.offset is None or info.offset < 0:
                return False
            if isinstance(info.base, AllocaInst):
                object_size = info.base.allocated_type.size_in_bytes()
            else:
                object_size = info.base.value_type.size_in_bytes()
            if info.offset + inst.type.size_in_bytes() > object_size:
                return False
            if not loop.is_invariant(inst.pointer):
                return False
            return True
        return all(loop.is_invariant(op) for op in inst.operands)


from .registry import register_pass

register_pass(
    "licm", LoopInvariantCodeMotion,
    description="hoist loop-invariant computations into the preheader")
