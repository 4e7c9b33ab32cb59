"""Control-flow-graph utilities over IR functions."""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir import BasicBlock, Function


def successors(block: BasicBlock) -> List[BasicBlock]:
    """CFG successors of ``block`` (empty for returns/unreachable)."""
    return block.successors()


def predecessors(block: BasicBlock) -> List[BasicBlock]:
    """CFG predecessors of ``block``."""
    return block.predecessors()


def reachable_blocks(function: Function) -> List[BasicBlock]:
    """Blocks reachable from the entry, in depth-first preorder."""
    if not function.blocks:
        return []
    seen: Set[int] = set()
    order: List[BasicBlock] = []
    stack = [function.entry_block]
    while stack:
        block = stack.pop()
        if id(block) in seen:
            continue
        seen.add(id(block))
        order.append(block)
        for succ in reversed(block.successors()):
            if id(succ) not in seen:
                stack.append(succ)
    return order


def unreachable_blocks(function: Function) -> List[BasicBlock]:
    """Blocks that cannot be reached from the entry block."""
    reachable = {id(b) for b in reachable_blocks(function)}
    return [b for b in function.blocks if id(b) not in reachable]


def postorder(function: Function) -> List[BasicBlock]:
    """Reachable blocks in depth-first postorder."""
    seen: Set[int] = set()
    order: List[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        seen.add(id(block))
        for succ in block.successors():
            if id(succ) not in seen:
                visit(succ)
        order.append(block)

    if function.blocks:
        visit(function.entry_block)
    return order


def reverse_postorder(function: Function) -> List[BasicBlock]:
    """Reachable blocks in reverse postorder (a topological-ish order)."""
    return list(reversed(postorder(function)))


class CFG:
    """A cached control-flow-graph view of one function.

    Bundles the traversal orders and the predecessor map that almost every
    other analysis starts from, so the analysis manager can compute them once
    per function epoch and share them (the dominator tree, loop info, and
    value-range analysis all accept a prebuilt CFG).
    """

    def __init__(self, function: Function) -> None:
        self.function = function
        self.postorder: List[BasicBlock] = postorder(function)
        self.reverse_postorder: List[BasicBlock] = list(
            reversed(self.postorder))
        self.preds: Dict[BasicBlock, List[BasicBlock]] = \
            predecessor_map(function)
        self._reachable_ids: Set[int] = {id(b) for b in self.postorder}

    def predecessors(self, block: BasicBlock) -> List[BasicBlock]:
        return self.preds.get(block, [])

    def reachable_ids(self) -> Set[int]:
        return set(self._reachable_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CFG {self.function.name} "
                f"({len(self.postorder)} reachable blocks)>")


def predecessor_map(function: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """Map every reachable block to its list of predecessors."""
    preds: Dict[BasicBlock, List[BasicBlock]] = {
        block: [] for block in function.blocks}
    for block in function.blocks:
        for succ in block.successors():
            if succ in preds:
                preds[succ].append(block)
    return preds


def remove_unreachable_blocks(function: Function) -> int:
    """Delete blocks not reachable from the entry.  Returns how many."""
    dead = unreachable_blocks(function)
    for block in dead:
        # Phi nodes in live successors must forget about the dead predecessor.
        for succ in block.successors():
            if succ not in dead:
                succ.remove_predecessor(block)
    for block in dead:
        for inst in list(block.instructions):
            inst.drop_all_references()
            inst.parent = None
        block.instructions = []
        function.remove_block(block)
    return len(dead)


def split_edge(pred: BasicBlock, succ: BasicBlock) -> BasicBlock:
    """Insert a new empty block on the edge ``pred -> succ`` and return it."""
    function = pred.parent
    assert function is not None
    from ..ir import IRBuilder

    middle = BasicBlock(function.next_name("edge"))
    function.insert_block_after(pred, middle)
    builder = IRBuilder(middle)
    builder.set_insert_point(middle)
    builder.br(succ)

    term = pred.terminator
    assert term is not None
    for index, op in enumerate(term.operands):
        if op is succ:
            term.set_operand(index, middle)
    for phi in succ.phis():
        for i, incoming in enumerate(phi.incoming_blocks):
            if incoming is pred:
                phi.incoming_blocks[i] = middle
    return middle
