"""CFG simplification.

Performs the cleanups every real compiler does between other passes:

* remove blocks that are unreachable from the entry,
* fold conditional branches whose condition is a constant,
* merge a block into its unique predecessor when that predecessor has a
  single successor,
* skip empty forwarding blocks (a block containing only an unconditional
  branch),
* turn conditional branches with identical targets into unconditional ones,
* drop phi nodes that have a single incoming value.
"""

from __future__ import annotations


from ..analysis import AnalysisManager, remove_unreachable_blocks
from ..ir import BranchInst, ConstantInt, Function, PhiInst, SwitchInst
from .pass_manager import Pass


class SimplifyCFG(Pass):
    """Iteratively apply local CFG simplifications until a fixpoint."""

    name = "simplifycfg"

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> bool:
        if function.is_declaration:
            return False
        changed = False
        while True:
            local = False
            local |= remove_unreachable_blocks(function) > 0
            local |= self._fold_constant_branches(function)
            local |= self._canonicalize_same_target_branches(function)
            local |= remove_unreachable_blocks(function) > 0
            local |= self._remove_single_incoming_phis(function)
            local |= self._merge_into_predecessor(function)
            local |= self._skip_forwarding_blocks(function)
            local |= self._remove_single_incoming_phis(function)
            if not local:
                break
            changed = True
        return changed

    # ------------------------------------------------------------ rewrites
    def _fold_constant_branches(self, function: Function) -> bool:
        changed = False
        for block in list(function.blocks):
            term = block.terminator
            if isinstance(term, BranchInst) and term.is_conditional and \
                    isinstance(term.condition, ConstantInt):
                taken = term.true_target if term.condition.value else \
                    term.false_target
                not_taken = term.false_target if term.condition.value else \
                    term.true_target
                term.erase_from_parent()
                from ..ir import IRBuilder
                builder = IRBuilder()
                builder.set_insert_point(block)
                builder.br(taken)
                if not_taken is not taken:
                    not_taken.remove_predecessor(block)
                changed = True
                self.stats.instructions_folded += 1
            elif isinstance(term, SwitchInst) and \
                    isinstance(term.value, ConstantInt):
                target = term.default
                for const, case_block in term.cases():
                    if isinstance(const, ConstantInt) and \
                            const.value == term.value.value:
                        target = case_block
                        break
                others = {id(s) for s in term.successors()} - {id(target)}
                all_succs = term.successors()
                term.erase_from_parent()
                from ..ir import IRBuilder
                builder = IRBuilder()
                builder.set_insert_point(block)
                builder.br(target)
                for succ in all_succs:
                    if id(succ) in others:
                        succ.remove_predecessor(block)
                changed = True
                self.stats.instructions_folded += 1
        return changed

    def _canonicalize_same_target_branches(self, function: Function) -> bool:
        changed = False
        for block in function.blocks:
            term = block.terminator
            if isinstance(term, BranchInst) and term.is_conditional and \
                    term.true_target is term.false_target:
                target = term.true_target
                term.erase_from_parent()
                from ..ir import IRBuilder
                builder = IRBuilder()
                builder.set_insert_point(block)
                builder.br(target)
                changed = True
        return changed

    def _remove_single_incoming_phis(self, function: Function) -> bool:
        changed = False
        for block in function.blocks:
            for phi in list(block.phis()):
                if len(phi.operands) == 1:
                    value = phi.operands[0]
                    if self._feeds_from(value, phi):
                        continue
                    phi.replace_all_uses_with(value)
                    phi.erase_from_parent()
                    changed = True
                elif len(phi.operands) > 1:
                    first = phi.operands[0]
                    if all(op is first for op in phi.operands) and \
                            first is not phi and \
                            not self._feeds_from(first, phi):
                        phi.replace_all_uses_with(first)
                        phi.erase_from_parent()
                        changed = True
        return changed

    @staticmethod
    def _feeds_from(value, phi, limit: int = 64) -> bool:
        """True if ``value`` transitively reads ``phi`` through non-phi
        instructions.  Collapsing such a phi would splice its replacement
        into its own operand chain (``t = add t, 1``), which is not SSA and
        sends downstream rewriters into infinite loops.  This only triggers
        on input that already violates dominance, so the walk is bounded and
        bails conservatively."""
        from ..ir import Instruction
        stack = [value]
        seen: set = set()
        while stack:
            current = stack.pop()
            if current is phi:
                return True
            if not isinstance(current, Instruction) or \
                    isinstance(current, PhiInst) or id(current) in seen:
                continue
            if len(seen) >= limit:
                return True  # give up conservatively; keep the phi
            seen.add(id(current))
            stack.extend(current.operands)
        return False

    def _merge_into_predecessor(self, function: Function) -> bool:
        """Merge ``block`` into ``pred`` when pred's only successor is block
        and block's only predecessor is pred."""
        changed = False
        for block in list(function.blocks):
            if block is function.entry_block:
                continue
            preds = block.predecessors()
            if len(preds) != 1:
                continue
            pred = preds[0]
            if pred is block:
                continue
            if len(pred.successors()) != 1 or pred.successors()[0] is not block:
                continue
            term = pred.terminator
            if not isinstance(term, BranchInst):
                continue
            # Phis in block have a single incoming value (from pred).
            for phi in list(block.phis()):
                value = phi.incoming_value_for(pred)
                phi.replace_all_uses_with(value)
                phi.erase_from_parent()
            term.erase_from_parent()
            for inst in list(block.instructions):
                block.remove_instruction(inst)
                pred.append_instruction(inst)
            # Successor phis must now refer to pred instead of block.
            for succ in pred.successors():
                for phi in succ.phis():
                    for i, incoming in enumerate(phi.incoming_blocks):
                        if incoming is block:
                            phi.incoming_blocks[i] = pred
            block.replace_all_uses_with(pred)
            function.remove_block(block)
            self.stats.blocks_merged += 1
            changed = True
        return changed

    def _skip_forwarding_blocks(self, function: Function) -> bool:
        """Redirect edges through blocks that only contain ``br label %next``."""
        changed = False
        for block in list(function.blocks):
            if block is function.entry_block:
                continue
            if len(block.instructions) != 1:
                continue
            term = block.terminator
            if not isinstance(term, BranchInst) or term.is_conditional:
                continue
            target = term.true_target
            if target is block:
                continue
            # If the target has phi nodes, only forward when doing so keeps
            # the phi well-formed (no duplicate predecessor conflicts).
            preds = block.predecessors()
            if not preds:
                continue
            target_phis = target.phis()
            if target_phis:
                target_pred_ids = {id(p) for p in target.predecessors()}
                if any(id(p) in target_pred_ids for p in preds):
                    continue
            redirected = False
            for pred in preds:
                pred_term = pred.terminator
                if pred_term is None:
                    continue
                for index, op in enumerate(pred_term.operands):
                    if op is block:
                        pred_term.set_operand(index, target)
                        redirected = True
                for phi in target_phis:
                    value = phi.incoming_value_for(block)
                    phi.add_incoming(value, pred)
            if redirected:
                for phi in target_phis:
                    phi.remove_incoming(block)
                changed = True
        return changed


from .registry import register_pass

register_pass(
    "simplifycfg", SimplifyCFG,
    description="remove unreachable blocks, merge and thread trivial blocks")
