"""Global value numbering (dominance-based CSE) and redundant load removal.

Eliminating recomputed expressions keeps symbolic expressions small and
shared, and removing redundant loads reduces the number of memory accesses
the verification tool must reason about — both effects the paper groups
under "instruction simplification" and "remove/split memory accesses".

Loads go two ways.  In a function that neither stores nor calls, they are
value numbered like pure expressions across the dominator tree; the
must-analysis behind ``load-elim`` does not subsume this, since it meets
facts by intersection over every predecessor.  Everywhere, the load-elim
walk (:func:`~repro.passes.load_elim.replace_available_loads`) forwards
stored and loaded values within each block, under the same alias kills
as the available-memory analysis.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis import AnalysisManager, DominatorTree, PreservedAnalyses
from ..ir import (
    BasicBlock, BinaryInst, CallInst, CastInst, Function, GEPInst, ICmpInst,
    Instruction, LoadInst, SelectInst, StoreInst, Value,
)
from .load_elim import replace_available_loads
from .pass_manager import Pass


def _value_key(value: Value) -> Tuple:
    from ..ir import ConstantInt
    if isinstance(value, ConstantInt):
        return ("const", str(value.type), value.value)
    return ("val", id(value))


def _expression_key(inst: Instruction) -> Optional[Tuple]:
    """A hashable key identifying the computation an instruction performs.
    Returns None for instructions that cannot be value numbered."""
    if isinstance(inst, BinaryInst):
        lhs = _value_key(inst.lhs)
        rhs = _value_key(inst.rhs)
        if inst.is_commutative and rhs < lhs:
            lhs, rhs = rhs, lhs
        return (inst.opcode.value, str(inst.type), lhs, rhs)
    if isinstance(inst, ICmpInst):
        return ("icmp", inst.predicate.value, _value_key(inst.lhs),
                _value_key(inst.rhs))
    if isinstance(inst, CastInst):
        return (inst.opcode.value, str(inst.type), _value_key(inst.value))
    if isinstance(inst, SelectInst):
        return ("select", _value_key(inst.condition),
                _value_key(inst.true_value), _value_key(inst.false_value))
    if isinstance(inst, GEPInst):
        return ("gep", _value_key(inst.base),
                tuple(_value_key(i) for i in inst.indices))
    return None


class GlobalValueNumbering(Pass):
    """Dominator-tree scoped hash-based CSE."""

    name = "gvn"

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> PreservedAnalyses:
        if function.is_declaration:
            return PreservedAnalyses.unchanged()
        domtree = analyses.dominator_tree(function)
        changed = self._number_values(function, domtree)
        # Block-local store-to-load forwarding: the load-elim walk, with no
        # facts at block entry.
        forwarded = replace_available_loads(function, lambda block: {})
        self.stats.redundancies_eliminated += forwarded
        if not changed and not forwarded:
            return PreservedAnalyses.unchanged()
        # CSE erases non-terminator instructions only.
        return PreservedAnalyses.cfg_preserving()

    # ------------------------------------------------------------- CSE
    def _number_values(self, function: Function, domtree: DominatorTree) -> bool:
        changed = False
        available: Dict[Tuple, Instruction] = {}
        # In a function with no stores and no calls, memory never changes, so
        # loads behave like pure expressions and can be value numbered across
        # blocks too (this is what makes the -OVERIFY loop body of the wc
        # kernel fully branch-free after inlining).
        memory_is_constant = not any(
            isinstance(inst, (StoreInst, CallInst))
            for inst in function.instructions())

        def visit(block: BasicBlock) -> None:
            nonlocal changed
            added: List[Tuple] = []
            for inst in list(block.instructions):
                key = _expression_key(inst)
                if key is None and memory_is_constant and \
                        isinstance(inst, LoadInst):
                    key = ("load", str(inst.type), _value_key(inst.pointer))
                if key is None:
                    continue
                existing = available.get(key)
                if existing is not None and existing.parent is not None:
                    inst.replace_all_uses_with(existing)
                    inst.erase_from_parent()
                    self.stats.redundancies_eliminated += 1
                    changed = True
                else:
                    available[key] = inst
                    added.append(key)
            for child in domtree.children.get(block, []):
                visit(child)
            for key in added:
                available.pop(key, None)

        if function.blocks:
            visit(function.entry_block)
        return changed


from .registry import register_pass

register_pass(
    "gvn", GlobalValueNumbering,
    description="eliminate redundant computations by value numbering")
