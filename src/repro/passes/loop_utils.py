"""Shared machinery for the loop transformations (unswitching, unrolling,
LICM): preheader creation, LCSSA-style exit phis, and whole-loop cloning."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis import DominatorTree, Loop
from ..ir import BasicBlock, BranchInst, Instruction, PhiInst, Value


def ensure_preheader(loop: Loop) -> Optional[BasicBlock]:
    """Return the loop's preheader, creating one if necessary.

    A preheader is an out-of-loop block whose only successor is the loop
    header.  If the header has several out-of-loop predecessors (or one that
    also branches elsewhere), a new block is inserted and all outside edges
    are redirected through it.
    """
    existing = loop.preheader()
    if existing is not None:
        return existing
    header = loop.header
    function = header.parent
    if function is None:
        return None
    outside_preds = [p for p in header.predecessors() if not loop.contains(p)]
    if not outside_preds:
        return None

    preheader = BasicBlock(function.next_name("preheader"))
    function.insert_block_after(outside_preds[0], preheader)
    builder_branch = BranchInst(header)
    preheader.append_instruction(builder_branch)

    # Header phis: merge the values arriving from outside into new phis that
    # live in the preheader.
    for phi in header.phis():
        outside_entries = [(value, pred) for value, pred in phi.incoming()
                           if pred in outside_preds]
        if not outside_entries:
            continue
        if len(outside_entries) == 1 and len(outside_preds) == 1:
            value = outside_entries[0][0]
        else:
            merge = PhiInst(phi.type, function.next_name(f"{phi.name}.ph"))
            preheader.insert_instruction(0, merge)
            for value, pred in outside_entries:
                merge.add_incoming(value, pred)
            value = merge
        for _, pred in outside_entries:
            phi.remove_incoming(pred)
        phi.add_incoming(value, preheader)

    # Redirect the outside edges to the preheader.
    for pred in outside_preds:
        term = pred.terminator
        if term is None:
            continue
        for index, op in enumerate(term.operands):
            if op is header:
                term.set_operand(index, preheader)
    return preheader


def loop_size(loop: Loop) -> int:
    """The loop's instruction count: what unrolling and unswitching copy."""
    return sum(len(block.instructions) for block in loop.blocks)


def loop_values_used_outside(loop: Loop) -> List[Instruction]:
    """Instructions defined inside the loop with at least one use outside it."""
    result: List[Instruction] = []
    for block in loop.blocks:
        for inst in block.instructions:
            if inst.type.is_void:
                continue
            for use in inst.uses:
                user = use.user
                if isinstance(user, Instruction) and user.parent is not None \
                        and not loop.contains(user.parent):
                    result.append(inst)
                    break
    return result


def can_insert_lcssa_phis(loop: Loop, exit_block: BasicBlock,
                          domtree: DominatorTree) -> bool:
    """Whether :func:`insert_lcssa_phis` can succeed: ``exit_block`` has an
    in-loop predecessor and every loop value used outside dominates each of
    them (else a phi of it would be malformed).  Edits nothing."""
    in_loop_preds = [p for p in exit_block.predecessors() if loop.contains(p)]
    return bool(in_loop_preds) and all(
        domtree.dominates(inst.parent, pred)
        for inst in loop_values_used_outside(loop) for pred in in_loop_preds)


def insert_lcssa_phis(loop: Loop, exit_block: BasicBlock,
                      domtree: DominatorTree) -> bool:
    """Rewrite out-of-loop uses of loop-defined values to go through phis in
    ``exit_block`` (a restricted LCSSA construction for single-exit loops).

    The caller supplies a current dominator tree (normally from the analysis
    manager).  Every value is checked before the first phi is inserted:
    returns False, having changed nothing, when
    :func:`can_insert_lcssa_phis` does.
    """
    if not can_insert_lcssa_phis(loop, exit_block, domtree):
        return False
    function = loop.header.parent
    assert function is not None
    in_loop_preds = [p for p in exit_block.predecessors() if loop.contains(p)]
    for inst in loop_values_used_outside(loop):
        phi = PhiInst(inst.type, function.next_name(f"{inst.name}.lcssa"))
        exit_block.insert_instruction(0, phi)
        for pred in in_loop_preds:
            phi.add_incoming(inst, pred)
        for use in list(inst.uses):
            user = use.user
            if user is phi:
                continue
            if isinstance(user, Instruction) and user.parent is not None and \
                    not loop.contains(user.parent):
                if isinstance(user, PhiInst) and user.parent is exit_block:
                    continue  # exit phis are updated by the cloning code
                user.set_operand(use.index, phi)
    return True


@dataclass
class ClonedLoop:
    """The result of cloning a loop's blocks."""

    block_map: Dict[int, BasicBlock]
    value_map: Dict[int, Value]
    blocks: List[BasicBlock]

    def mapped_block(self, block: BasicBlock) -> BasicBlock:
        return self.block_map.get(id(block), block)

    def mapped_value(self, value: Value) -> Value:
        if isinstance(value, BasicBlock):
            return self.block_map.get(id(value), value)
        return self.value_map.get(id(value), value)


def clone_loop(loop: Loop, name_suffix: str) -> ClonedLoop:
    """Clone every block of ``loop`` into its function.

    Branch targets and operands that refer to loop-internal blocks/values are
    remapped to their clones; references to values defined outside the loop
    (including the preheader) are left untouched.  The caller is responsible
    for wiring the clone into the CFG and for updating exit-block phis.
    """
    function = loop.header.parent
    assert function is not None
    block_map: Dict[int, BasicBlock] = {}
    value_map: Dict[int, Value] = {}
    cloned_blocks: List[BasicBlock] = []

    insert_after = loop.blocks[-1] if loop.blocks[-1].parent is function \
        else function.blocks[-1]
    for block in loop.blocks:
        clone = BasicBlock(function.next_name(f"{block.name}.{name_suffix}"))
        block_map[id(block)] = clone
        cloned_blocks.append(clone)
    for clone in cloned_blocks:
        function.insert_block_after(insert_after, clone)
        insert_after = clone

    header_clone = block_map[id(loop.header)]
    cloned_instructions: List[Instruction] = []
    for block, clone_block in zip(loop.blocks, cloned_blocks):
        for inst in block.instructions:
            clone = inst.clone()
            if not clone.type.is_void:
                clone.name = function.next_name(inst.name or "c")
            clone_block.append_instruction(clone)
            value_map[id(inst)] = clone
            cloned_instructions.append(clone)

    for clone in cloned_instructions:
        for index, operand in enumerate(list(clone.operands)):
            if isinstance(operand, BasicBlock):
                mapped: Optional[Value] = block_map.get(id(operand))
            else:
                mapped = value_map.get(id(operand))
            if mapped is not None:
                clone.set_operand(index, mapped)
        if isinstance(clone, PhiInst):
            # Only the header is entered from outside the loop.  Any other
            # block's outside predecessor is unreachable (an arm an earlier
            # unswitch cut off) and branches to the original block alone.
            if clone.parent is not header_clone:
                for block in [b for b in clone.incoming_blocks
                              if not loop.contains(b)]:
                    clone.remove_incoming(block)
            clone.incoming_blocks = [
                block_map.get(id(b), b) for b in clone.incoming_blocks]

    return ClonedLoop(block_map=block_map, value_map=value_map,
                      blocks=cloned_blocks)


def add_cloned_incoming_to_exit_phis(loop: Loop, exit_blocks: List[BasicBlock],
                                     cloned: ClonedLoop) -> None:
    """For every phi in an exit block, add incoming entries for the cloned
    in-loop predecessors, carrying the cloned values."""
    for exit_block in exit_blocks:
        for phi in exit_block.phis():
            for value, pred in list(phi.incoming()):
                if loop.contains(pred):
                    phi.add_incoming(cloned.mapped_value(value),
                                     cloned.mapped_block(pred))


def single_exit_block(loop: Loop) -> Optional[BasicBlock]:
    """The loop's unique exit block, if it has exactly one and every
    predecessor of that block is inside the loop."""
    exits = loop.exit_blocks()
    if len(exits) != 1:
        return None
    exit_block = exits[0]
    if any(not loop.contains(p) for p in exit_block.predecessors()):
        return None
    return exit_block
