"""Dead code elimination.

Removes instructions whose results are unused and that have no side effects,
plus stores to allocas that are never read ("dead store to dead object").
Together with constant propagation this is what produces the instruction
count reduction the paper attributes to ``-O2`` in Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from ..analysis import AnalysisManager
from ..ir import (
    AllocaInst, CallInst, ConstantInt, Function, Instruction, Module, Opcode,
    StoreInst,
)
from .pass_manager import Pass

_DIVISION_OPCODES = frozenset(
    (Opcode.SDIV, Opcode.UDIV, Opcode.SREM, Opcode.UREM))


@dataclass
class DCEParams:
    """Knobs of :class:`DeadCodeElimination`.

    ``unsafe_traps`` re-opens a fuzzer-found miscompile — deleting unused
    divisions whose divisor may be zero, silently dropping the trap.  It
    exists ONLY so the translation-validation negative tests can plant a
    known-bad module and assert relcheck catches it; never enable it in a
    real pipeline."""

    unsafe_traps: bool = False


def _is_trivially_dead(inst: Instruction, unsafe_traps: bool = False) -> bool:
    if inst.num_uses > 0:
        return False
    if inst.is_terminator:
        return False
    if isinstance(inst, StoreInst):
        return False
    if isinstance(inst, CallInst):
        return False  # calls may have side effects; the IPO passes handle them
    if inst.opcode in _DIVISION_OPCODES and not unsafe_traps:
        # A zero divisor is an observable trap at every level (the
        # interpreter raises DIVISION_BY_ZERO and symex reports it as a
        # bug), so an unused division is only dead when the divisor is a
        # provably nonzero constant.  Every other pass (lowering's
        # short-circuit speculation, ifconvert, LICM) already refuses to
        # move div/rem for the same reason; DCE deleting them silently
        # dropped the trap from -O1 and up.
        divisor = inst.operands[1]
        if not (isinstance(divisor, ConstantInt) and divisor.value != 0):
            return False
    return True


class DeadCodeElimination(Pass):
    """Classic use-count based DCE plus dead-alloca removal."""

    name = "dce"

    def __init__(self, params: Optional[DCEParams] = None) -> None:
        super().__init__()
        self.params = params or DCEParams()

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> bool:
        if function.is_declaration:
            return False
        changed = False
        progress = True
        unsafe_traps = self.params.unsafe_traps
        while progress:
            progress = False
            for block in function.blocks:
                for inst in reversed(list(block.instructions)):
                    if _is_trivially_dead(inst, unsafe_traps):
                        inst.erase_from_parent()
                        self.stats.instructions_removed += 1
                        progress = True
                        changed = True
            progress |= self._remove_dead_allocas(function)
        if not changed:
            return False
        return True

    def _remove_dead_allocas(self, function: Function) -> bool:
        """Remove allocas that are only ever written, never read."""
        changed = False
        for block in function.blocks:
            for inst in list(block.instructions):
                if not isinstance(inst, AllocaInst):
                    continue
                users = [use.user for use in inst.uses]
                only_stores = all(
                    isinstance(u, StoreInst) and u.pointer is inst and
                    u.value is not inst
                    for u in users)
                if users and not only_stores:
                    continue
                for user in list(users):
                    if isinstance(user, Instruction):
                        user.erase_from_parent()
                        self.stats.instructions_removed += 1
                inst.erase_from_parent()
                self.stats.instructions_removed += 1
                changed = True
        return changed


class GlobalDCE(Pass):
    """Remove functions that can no longer be reached from the module roots.

    After aggressive inlining (``-OVERIFY``), most library helpers have no
    remaining callers; deleting them is what shrinks the "# instructions"
    row of Table 1 and keeps the symbolic executor from wading through dead
    definitions.
    """

    name = "globaldce"

    def __init__(self, roots: Set[str] | None = None) -> None:
        super().__init__()
        #: Functions that must never be removed (program entry points).
        self.roots = roots or {"main"}

    def run_on_module(self, module: Module,
                      analyses: AnalysisManager = None) -> bool:
        if analyses is None:
            analyses = AnalysisManager()
        roots = {name for name in self.roots if name in module.functions}
        if not roots:
            # Without a known entry point it is not safe to delete anything.
            return False
        graph = analyses.call_graph(module)
        live = graph.reachable_from(sorted(roots))
        changed = False
        # Sweep until one deletes nothing: a dead function still called by
        # another dead one loses that use when its caller's body is dropped.
        swept = True
        while swept:
            swept = False
            for function in list(module.functions.values()):
                if function.name in live or function.name in self.roots:
                    continue
                if function.num_uses > 0:
                    continue
                for block in list(function.blocks):
                    for inst in list(block.instructions):
                        inst.drop_all_references()
                    block.instructions = []
                function.blocks = []
                module.remove_function(function)
                analyses.invalidate_function(function)
                self.stats.functions_removed += 1
                swept = changed = True
        if not changed:
            return False
        return True


from .registry import flag_param, names_param, register_pass

register_pass(
    "dce", lambda **params: DeadCodeElimination(DCEParams(**params)),
    params=[flag_param("unsafe-traps", "unsafe_traps", DCEParams)],
    description="delete instructions whose results are unused "
                "(unsafe-traps re-opens a known miscompile, for the "
                "relcheck negative tests only)")
register_pass(
    "globaldce", lambda roots=None: GlobalDCE(roots),
    params=[names_param("roots", "roots", ("main",))],
    description="delete functions unreachable from the root set")
