"""Promote memory to registers (the classic SSA-construction pass).

The paper's Table 2 lists "Remove/split memory accesses" as beneficial for
both verification and execution: every alloca that is only loaded and stored
as a whole scalar is rewritten into SSA values with phi nodes, which removes
the loads/stores that a verification tool would otherwise have to reason
about through its memory model.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..analysis import AnalysisManager, DominatorTree
from ..ir import (
    AllocaInst, BasicBlock, Function, LoadInst, PhiInst, StoreInst, UndefValue,
    Value,
)
from .pass_manager import Pass


def _is_promotable(alloca: AllocaInst) -> bool:
    """An alloca is promotable when it holds a first-class scalar and every
    use is a direct whole-value load or store (never address-taken)."""
    ty = alloca.allocated_type
    if not (ty.is_integer or ty.is_pointer):
        return False
    for use in alloca.uses:
        user = use.user
        if isinstance(user, LoadInst) and user.pointer is alloca:
            continue
        if isinstance(user, StoreInst) and user.pointer is alloca and \
                user.value is not alloca:
            continue
        return False
    return True


class PromoteMemoryToRegisters(Pass):
    """mem2reg: rewrite promotable allocas into SSA form."""

    name = "mem2reg"

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> bool:
        if function.is_declaration:
            return False
        allocas = [inst for inst in function.instructions()
                   if isinstance(inst, AllocaInst) and _is_promotable(inst)]
        if not allocas:
            return False
        domtree = analyses.dominator_tree(function)
        # The frontier sets iterate in memory-address order; walking them
        # in block order keeps phi placement and numbering, and so the
        # printed module, the same from process to process.
        order = {block: index for index, block in enumerate(function.blocks)}
        frontier = {block: sorted(blocks, key=order.__getitem__)
                    for block, blocks in domtree.dominance_frontier().items()}
        reachable = analyses.cfg(function).reachable_ids()

        phi_owner: Dict[int, AllocaInst] = {}
        for alloca in allocas:
            self._insert_phis(alloca, function, frontier, reachable, phi_owner)
        self._rename(function, domtree, allocas, phi_owner)

        for alloca in allocas:
            for use in list(alloca.uses):
                user = use.user
                if isinstance(user, (LoadInst, StoreInst)):
                    user.erase_from_parent()
            alloca.erase_from_parent()
            self.stats.allocas_promoted += 1
        return True

    # ------------------------------------------------------------ phi nodes
    def _insert_phis(self, alloca: AllocaInst, function: Function,
                     frontier: Dict[BasicBlock, List[BasicBlock]],
                     reachable: Set[int],
                     phi_owner: Dict[int, AllocaInst]) -> None:
        defining_blocks: List[BasicBlock] = []
        for use in alloca.uses:
            user = use.user
            if isinstance(user, StoreInst) and user.parent is not None and \
                    id(user.parent) in reachable:
                if user.parent not in defining_blocks:
                    defining_blocks.append(user.parent)
        has_phi: Set[int] = set()
        worklist = list(defining_blocks)
        while worklist:
            block = worklist.pop()
            for df_block in frontier.get(block, ()):  # type: ignore[arg-type]
                if id(df_block) in has_phi:
                    continue
                has_phi.add(id(df_block))
                phi = PhiInst(alloca.allocated_type,
                              function.next_name(f"{alloca.name}.phi"))
                df_block.insert_instruction(0, phi)
                phi_owner[id(phi)] = alloca
                if df_block not in defining_blocks:
                    worklist.append(df_block)

    # ------------------------------------------------------------- renaming
    def _rename(self, function: Function, domtree: DominatorTree,
                allocas: List[AllocaInst],
                phi_owner: Dict[int, AllocaInst]) -> None:
        alloca_set = {id(a): a for a in allocas}
        undef: Dict[int, Value] = {
            id(a): UndefValue(a.allocated_type) for a in allocas}

        def current(stacks: Dict[int, List[Value]], alloca: AllocaInst) -> Value:
            stack = stacks[id(alloca)]
            return stack[-1] if stack else undef[id(alloca)]

        stacks: Dict[int, List[Value]] = {id(a): [] for a in allocas}

        def visit(block: BasicBlock) -> None:
            pushed: List[int] = []
            for inst in list(block.instructions):
                if isinstance(inst, PhiInst) and id(inst) in phi_owner:
                    alloca = phi_owner[id(inst)]
                    stacks[id(alloca)].append(inst)
                    pushed.append(id(alloca))
                elif isinstance(inst, LoadInst) and id(inst.pointer) in alloca_set:
                    alloca = alloca_set[id(inst.pointer)]
                    inst.replace_all_uses_with(current(stacks, alloca))
                elif isinstance(inst, StoreInst) and id(inst.pointer) in alloca_set:
                    alloca = alloca_set[id(inst.pointer)]
                    stacks[id(alloca)].append(inst.value)
                    pushed.append(id(alloca))
            for succ in block.successors():
                for phi in succ.phis():
                    if id(phi) in phi_owner:
                        alloca = phi_owner[id(phi)]
                        phi.add_incoming(current(stacks, alloca), block)
            for child in domtree.children.get(block, []):
                visit(child)
            for key in reversed(pushed):
                stacks[key].pop()

        if function.blocks:
            visit(function.entry_block)


from .registry import register_pass

register_pass(
    "mem2reg", PromoteMemoryToRegisters,
    description="promote stack slots to SSA registers")
