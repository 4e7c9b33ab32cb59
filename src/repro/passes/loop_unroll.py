"""Loop unrolling (full unrolling of counted loops, via iterative peeling).

The -OSYMBEX prototype "removes loops from the program whenever possible,
even if this increases the program size" (§4).  For a path-exploring
verification tool, a fully unrolled loop contributes straight-line code
instead of one forking point per iteration.

Strategy: for a loop whose trip count is a known small constant, peel one
iteration at a time — clone the loop body, route the preheader into the
peeled copy, and route the peeled copy's back edge into the original loop.
After ``trip_count`` peels the original loop's condition folds to a constant
and SimplifyCFG deletes the now-dead loop.  Peeling reuses exactly the same
cloning machinery as unswitching, which keeps the two transformations
consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis import (
    AnalysisManager, Loop, PreservedAnalyses, compute_trip_count,
)
from ..ir import BasicBlock, BranchInst, Function, PhiInst
from .loop_utils import (
    add_cloned_incoming_to_exit_phis, can_insert_lcssa_phis, clone_loop,
    ensure_preheader, insert_lcssa_phis, loop_size, single_exit_block,
)
from .pass_manager import Pass


@dataclass
class UnrollParams:
    """Cost model for full unrolling."""

    #: Maximum trip count that will be fully unrolled.
    max_trip_count: int = 8
    #: Maximum (trip count x loop size) budget in instructions.
    max_unrolled_size: int = 256


class LoopUnrolling(Pass):
    """Fully unroll small counted loops."""

    name = "loop-unroll"

    def __init__(self, params: Optional[UnrollParams] = None) -> None:
        super().__init__()
        self.params = params or UnrollParams()

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> PreservedAnalyses:
        if function.is_declaration:
            return PreservedAnalyses.unchanged()
        epoch = function.ir_epoch
        # Re-discover loops after each successful unroll because peeling
        # rewrites the region around the loop (the epoch bump makes the
        # manager recompute; when nothing changed, it is a cache hit).
        for _ in range(16):
            loop_info = analyses.loop_info(function)
            unrolled = False
            for loop in loop_info.innermost_loops():
                if self._try_unroll(function, loop, analyses):
                    self.stats.loops_unrolled += 1
                    unrolled = True
                    break
            if not unrolled:
                break
        return PreservedAnalyses.none() if function.ir_epoch != epoch \
            else PreservedAnalyses.unchanged()

    # ------------------------------------------------------------ unrolling
    def _try_unroll(self, function: Function, loop: Loop,
                    analyses: AnalysisManager) -> bool:
        trip = compute_trip_count(loop, max_count=self.params.max_trip_count + 1)
        if trip is None or trip.count > self.params.max_trip_count:
            return False
        if trip.count == 0:
            # A loop whose body never executes needs no peeling; constant
            # propagation and SimplifyCFG will delete it.
            return False
        if trip.count * loop_size(loop) > self.params.max_unrolled_size:
            return False
        if len(loop.latches) != 1:
            return False
        exit_block = single_exit_block(loop)
        if exit_block is None or not can_insert_lcssa_phis(
                loop, exit_block, analyses.dominator_tree(function)):
            return False
        # Every precondition holds: the first edit commits to the unroll.
        if ensure_preheader(loop) is None:
            return False
        insert_lcssa_phis(loop, exit_block, analyses.dominator_tree(function))
        for _ in range(trip.count):
            self._peel_once(loop, exit_block)
        # After trip_count peels the original loop body can never execute
        # again, so its exiting branch is rewritten to leave unconditionally;
        # SimplifyCFG then deletes the dead body and back edge.
        self._seal_original_loop(loop, trip.exit_block)
        return True

    @staticmethod
    def _seal_original_loop(loop: Loop, exiting_block: BasicBlock) -> None:
        term = exiting_block.terminator
        if not isinstance(term, BranchInst) or not term.is_conditional:
            return
        outside = [t for t in term.successors() if not loop.contains(t)]
        inside = [t for t in term.successors() if loop.contains(t)]
        if len(outside) != 1 or len(inside) != 1:
            return
        term.erase_from_parent()
        exiting_block.append_instruction(BranchInst(outside[0]))
        inside[0].remove_predecessor(exiting_block)

    def _peel_once(self, loop: Loop, exit_block: BasicBlock) -> None:
        # The header is entered from outside the loop: by its preheader at
        # first, then by the previous peeled copy's latch.
        preheader = ensure_preheader(loop)
        assert preheader is not None
        latch = loop.latches[0]
        header = loop.header

        cloned = clone_loop(loop, "peel")
        add_cloned_incoming_to_exit_phis(loop, [exit_block], cloned)
        cloned_header = cloned.mapped_block(header)
        cloned_latch = cloned.mapped_block(latch)

        # 1. Preheader enters the peeled copy instead of the original loop.
        preheader_term = preheader.terminator
        assert preheader_term is not None
        for index, op in enumerate(preheader_term.operands):
            if op is header:
                preheader_term.set_operand(index, cloned_header)

        # 2. The peeled copy's back edge continues into the original loop.
        cloned_latch_term = cloned_latch.terminator
        assert cloned_latch_term is not None
        for index, op in enumerate(cloned_latch_term.operands):
            if op is cloned_header:
                cloned_latch_term.set_operand(index, header)

        # 3. Header phis: the original header now receives its "initial"
        #    values from the peeled latch (the value after one iteration),
        #    and the peeled header keeps only the preheader entry.
        for phi in header.phis():
            cloned_phi = cloned.mapped_value(phi)
            assert isinstance(cloned_phi, PhiInst)
            latch_value = phi.incoming_value_for(latch)
            # Original loop: replace the preheader entry with the value the
            # peeled iteration produces on its back edge.
            phi.remove_incoming(preheader)
            phi.add_incoming(cloned.mapped_value(latch_value), cloned_latch)
            # Peeled copy: it executes exactly once, so it only keeps the
            # initial value coming from the preheader.
            cloned_phi.remove_incoming(cloned_latch)
            # The cloned phi's preheader entry still refers to the original
            # initial value, which is correct.
        # 4. The peeled copy's header phis now have a single incoming value;
        #    SimplifyCFG will fold them.  Nothing else to do.


from .registry import int_param, register_pass

register_pass(
    "loop-unroll", lambda **params: LoopUnrolling(UnrollParams(**params)),
    params=[
        int_param("trips", "max_trip_count", UnrollParams),
        int_param("size", "max_unrolled_size", UnrollParams),
    ],
    description="fully unroll small counted loops")
