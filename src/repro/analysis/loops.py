"""Natural-loop detection and trip-count analysis.

Loops are found from back edges in the dominator tree (an edge ``latch ->
header`` where the header dominates the latch).  The loop unswitching,
unrolling, and LICM passes all operate on this representation, and the
annotation pass exports trip counts as instruction metadata — the paper's
"program annotations" that verification tools can consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..ir import (
    BasicBlock, BinaryInst, BranchInst, ConstantInt, Function, ICmpInst,
    ICmpPredicate, Instruction, Opcode, PhiInst, Value,
)
from .cfg import CFG, predecessor_map
from .dominators import DominatorTree


@dataclass
class Loop:
    """A natural loop: a header plus the set of blocks that reach the latch
    without going through the header."""

    header: BasicBlock
    blocks: List[BasicBlock] = field(default_factory=list)
    latches: List[BasicBlock] = field(default_factory=list)
    parent: Optional["Loop"] = None
    subloops: List["Loop"] = field(default_factory=list)

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def contains_instruction(self, inst: Instruction) -> bool:
        return inst.parent is not None and self.contains(inst.parent)

    @property
    def depth(self) -> int:
        depth = 1
        parent = self.parent
        while parent is not None:
            depth += 1
            parent = parent.parent
        return depth

    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks outside the loop that are branched to from inside it."""
        exits: List[BasicBlock] = []
        for block in self.blocks:
            for succ in block.successors():
                if not self.contains(succ) and succ not in exits:
                    exits.append(succ)
        return exits

    def exiting_blocks(self) -> List[BasicBlock]:
        """Blocks inside the loop with a successor outside it."""
        result = []
        for block in self.blocks:
            if any(not self.contains(succ) for succ in block.successors()):
                result.append(block)
        return result

    def preheader(self) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header, if there is one
        and it branches only to the header."""
        outside = [p for p in self.header.predecessors()
                   if not self.contains(p)]
        if len(outside) != 1:
            return None
        candidate = outside[0]
        if candidate.successors() == [self.header]:
            return candidate
        return None

    def is_invariant(self, value: Value) -> bool:
        """True if ``value`` is defined outside the loop (or is a constant)."""
        if isinstance(value, Instruction):
            return not self.contains_instruction(value)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Loop header={self.header.name} "
                f"blocks={[b.name for b in self.blocks]}>")


class LoopInfo:
    """All natural loops of a function, nested."""

    def __init__(self, function: Function,
                 domtree: Optional[DominatorTree] = None,
                 cfg: Optional[CFG] = None) -> None:
        self.function = function
        self.domtree = domtree or DominatorTree(function, cfg=cfg)
        self._cfg = cfg
        self.loops: List[Loop] = []
        self.top_level: List[Loop] = []
        self._block_to_loop: Dict[int, Loop] = {}
        self._discover()

    # ------------------------------------------------------------ discovery
    def _discover(self) -> None:
        preds = self._cfg.preds if self._cfg is not None \
            else predecessor_map(self.function)
        # Find back edges.
        back_edges: Dict[BasicBlock, List[BasicBlock]] = {}
        for block in self.domtree.rpo:
            for succ in block.successors():
                if succ in self.domtree.idom and self.domtree.dominates(succ, block):
                    back_edges.setdefault(succ, []).append(block)
        # Build one loop per header, merging all its back edges.
        for header, latches in back_edges.items():
            body: Set[int] = {id(header)}
            blocks: List[BasicBlock] = [header]
            stack = list(latches)
            while stack:
                block = stack.pop()
                if id(block) in body:
                    continue
                body.add(id(block))
                blocks.append(block)
                for pred in preds.get(block, []):
                    if id(pred) not in body and pred in self.domtree.idom:
                        stack.append(pred)
            loop = Loop(header=header, blocks=blocks, latches=list(latches))
            self.loops.append(loop)
        # Establish nesting: a loop is a subloop of the smallest loop that
        # strictly contains its header.
        self.loops.sort(key=lambda l: len(l.blocks))
        for i, loop in enumerate(self.loops):
            for bigger in self.loops[i + 1:]:
                if bigger is not loop and bigger.contains(loop.header) and \
                        len(bigger.blocks) > len(loop.blocks):
                    loop.parent = bigger
                    bigger.subloops.append(loop)
                    break
        self.top_level = [l for l in self.loops if l.parent is None]
        for loop in self.loops:
            for block in loop.blocks:
                existing = self._block_to_loop.get(id(block))
                if existing is None or len(loop.blocks) < len(existing.blocks):
                    self._block_to_loop[id(block)] = loop

    # ------------------------------------------------------------- queries
    def loop_for(self, block: BasicBlock) -> Optional[Loop]:
        """The innermost loop containing ``block``, if any."""
        return self._block_to_loop.get(id(block))

    def loop_depth(self, block: BasicBlock) -> int:
        loop = self.loop_for(block)
        return loop.depth if loop is not None else 0

    def innermost_loops(self) -> List[Loop]:
        return [loop for loop in self.loops if not loop.subloops]


@dataclass
class TripCount:
    """A statically computed trip count for a counted loop."""

    count: int
    induction_phi: PhiInst
    exit_block: BasicBlock


def compute_trip_count(loop: Loop, max_count: int = 1 << 20) -> Optional[TripCount]:
    """Try to compute an exact trip count for a simple counted loop.

    Handles the common shape produced by the front end: a header phi ``i``
    starting at a constant, stepped by a constant add in the latch, compared
    against a constant bound by the loop's single exiting comparison.
    """
    exiting = loop.exiting_blocks()
    if len(exiting) != 1:
        return None
    exit_block = exiting[0]
    term = exit_block.terminator
    if not isinstance(term, BranchInst) or not term.is_conditional:
        return None
    condition = term.condition
    # Look through the front end's "icmp ne (zext <cmp>), 0" wrapper so the
    # analysis also works on not-yet-instcombined IR.
    if isinstance(condition, ICmpInst) and \
            condition.predicate is ICmpPredicate.NE and \
            isinstance(condition.rhs, ConstantInt) and condition.rhs.is_zero:
        inner = condition.lhs
        from ..ir import CastInst
        if isinstance(inner, CastInst) and isinstance(inner.value, ICmpInst):
            condition = inner.value
    if not isinstance(condition, ICmpInst):
        return None

    # Identify an induction phi in the header.
    for phi in loop.header.phis():
        start: Optional[int] = None
        step: Optional[int] = None
        for value, pred in phi.incoming():
            if loop.contains(pred):
                if isinstance(value, BinaryInst) and value.opcode is Opcode.ADD:
                    other = None
                    if value.lhs is phi and isinstance(value.rhs, ConstantInt):
                        other = value.rhs
                    elif value.rhs is phi and isinstance(value.lhs, ConstantInt):
                        other = value.lhs
                    if other is not None:
                        step = other.signed_value
            else:
                if isinstance(value, ConstantInt):
                    start = value.signed_value
        if start is None or step is None or step == 0:
            continue
        # The exit condition must compare the phi (or its increment) against
        # a constant.
        bound: Optional[int] = None
        compared = None
        if condition.lhs is phi or (isinstance(condition.lhs, BinaryInst) and
                                    phi in condition.lhs.operands):
            compared = condition.lhs
            if isinstance(condition.rhs, ConstantInt):
                bound = condition.rhs.signed_value
        elif condition.rhs is phi or (isinstance(condition.rhs, BinaryInst) and
                                      phi in condition.rhs.operands):
            compared = condition.rhs
            if isinstance(condition.lhs, ConstantInt):
                bound = condition.lhs.signed_value
        if bound is None or compared is None:
            continue
        count = _iterate_trip_count(loop, term, condition, phi, compared,
                                    start, step, bound, max_count)
        if count is not None:
            return TripCount(count=count, induction_phi=phi,
                             exit_block=exit_block)
    return None


def _iterate_trip_count(loop: Loop, term: BranchInst, condition: ICmpInst,
                        phi: PhiInst, compared: Value, start: int, step: int,
                        bound: int, max_count: int) -> Optional[int]:
    """Simulate the counted loop's exit test up to ``max_count`` iterations."""
    from ..ir import eval_icmp
    from ..ir.types import IntType

    ity = phi.type
    if not isinstance(ity, IntType):
        return None
    stays_in_loop_on_true = loop.contains(term.true_target)
    value = start
    for iteration in range(max_count + 1):
        # Value being compared: either the phi itself or phi+step (when the
        # increment is compared instead of the phi).
        if compared is phi:
            lhs_val = value
        else:
            lhs_val = value + step
        if condition.lhs is compared:
            taken = eval_icmp(condition.predicate, ity,
                              lhs_val & ity.mask, bound & ity.mask)
        else:
            taken = eval_icmp(condition.predicate, ity,
                              bound & ity.mask, lhs_val & ity.mask)
        in_loop = taken if stays_in_loop_on_true else not taken
        if not in_loop:
            return iteration
        value += step
    return None
