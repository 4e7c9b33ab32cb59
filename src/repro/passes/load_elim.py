"""Redundant load elimination over the available-memory analysis.

:func:`replace_available_loads` is the one load-forwarding walk: it
replaces a load whose (pointer, size) location holds a known SSA value of
the load's type, and keeps the facts current past every instruction with
:meth:`repro.analysis.AvailableMemory.transfer`, so its alias kills are the
analysis's own.  ``load-elim`` starts each block from the analysis's entry
facts, which carries the rewrite across block boundaries; ``gvn`` starts
each block from none, which is its block-local store-to-load forwarding.

The verification payoff is indirect but large: a load is opaque to every
scalar pass, so a branch condition computed from a reloaded flag can never
fold.  Once the load is replaced by the stored value, SCCP/instcombine see
straight data flow and the branch folds or converts — e.g. the
``new_word`` handshake in the paper's word-count kernel stops being a
memory round trip per iteration and becomes a φ the other passes consume.

The intersection meet of the analysis guarantees the replacing value's
definition lies on every path to the load, hence dominates it; no new
dominance checking is needed here.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..analysis import AnalysisManager, AvailableMemory, FactMap, access_size
from ..ir import BasicBlock, Function, LoadInst, Value
from .pass_manager import Pass


def replace_available_loads(
        function: Function,
        entry_facts: Callable[[BasicBlock], FactMap]) -> int:
    """Walk every block of ``function`` from ``entry_facts(block)`` and
    replace each load whose location is known to hold a value of its size
    and type.  Returns the number of loads replaced."""
    #: id(erased load) -> the value it was replaced with.  Entry facts may
    #: have been computed over the pre-pass IR and name a load this very
    #: walk already eliminated; chase it to the surviving value.
    replaced: Dict[int, Value] = {}

    def resolve(value: Value) -> Value:
        while id(value) in replaced:
            value = replaced[id(value)]
        return value

    eliminated = 0
    for block in function.blocks:
        facts = entry_facts(block)
        for inst in list(block.instructions):
            if isinstance(inst, LoadInst):
                fact = facts.get(id(inst.pointer))
                if fact is not None and \
                        fact.size == access_size(inst.pointer) \
                        and fact.value is not inst \
                        and fact.value.type == inst.type:
                    value = resolve(fact.value)
                    inst.replace_all_uses_with(value)
                    inst.erase_from_parent()
                    replaced[id(inst)] = value
                    eliminated += 1
                    continue
            AvailableMemory.transfer(facts, inst)
    return eliminated


class LoadElimination(Pass):
    """Replace loads whose location holds a known value on every path."""

    name = "load-elim"

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> bool:
        if function.is_declaration or not function.blocks:
            return False
        memory = analyses.available_memory(function)
        eliminated = replace_available_loads(function, memory.entry_facts)
        if not eliminated:
            return False
        self.stats.loads_eliminated += eliminated
        return True


from .registry import register_pass

register_pass(
    "load-elim", LoadElimination,
    description="remove loads whose value is available on every path")
