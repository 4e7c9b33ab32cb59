"""Available-memory analysis: a lightweight memory SSA.

The paper observes that "memory accesses complicate the data-flow graph of a
program": a load is an opaque value to every later pass, so a branch on a
loaded flag can never fold even when the store that produced the flag is in
plain sight one block earlier.  This module computes, for every basic block,
the set of *available memory facts* at block entry — which (pointer, size)
locations are known to hold which SSA value — so that
:class:`repro.passes.load_elim.LoadElimination` can replace redundant loads
across block boundaries and turn such branch conditions back into ordinary
data flow.

The analysis is a forward must-dataflow over a simple lattice:

* a **fact** says "the ``size`` bytes at ``pointer`` hold ``value``";
  facts are keyed by the identity of the address SSA value, so two
  accesses share a fact exactly when they use the same (typically
  GVN-unified) address computation;
* the **transfer function** adds a fact for every load and store, kills
  facts that a store may alias (using :func:`repro.analysis.alias.alias`),
  and kills everything a call could write — only locations rooted at
  allocas whose address never escapes survive a call;
* the **meet** over predecessors is set intersection: a fact is available
  at block entry only if every predecessor guarantees it.  Because the
  kept facts name the *same* SSA value along every path, the value's
  definition necessarily dominates the block, so replacement is always
  legal.

Unlike the CFG-derived analyses this one depends on the values *inside*
blocks, so it is invalidated by any IR change (it is deliberately not part
of ``CFG_DERIVED``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ir import (
    AllocaInst, BasicBlock, CallInst, Function, Instruction, LoadInst,
    PointerType, StoreInst, Value,
)
from .alias import AliasResult, alias, alloca_address_escapes, \
    underlying_object
from .cfg import CFG


@dataclass(frozen=True)
class MemoryFact:
    """``size`` bytes at ``pointer`` are known to hold ``value``."""

    pointer: Value
    size: int
    value: Value


#: A block's fact set, keyed by the identity of the address SSA value.
FactMap = Dict[int, MemoryFact]


def access_size(pointer: Value) -> int:
    """Byte size of the location a typed pointer addresses (8 for an
    untyped one)."""
    pointer_type = pointer.type
    if isinstance(pointer_type, PointerType) and \
            not pointer_type.pointee.is_void:
        return pointer_type.pointee.size_in_bytes()
    return 8


def _survives_call(fact: MemoryFact) -> bool:
    """A call can write through any escaped pointer; only facts rooted at
    provably local allocas survive."""
    base = underlying_object(fact.pointer).base
    return isinstance(base, AllocaInst) and not alloca_address_escapes(base)


class AvailableMemory:
    """Per-block available load/store facts for one function.

    ``entry_facts(block)`` returns the facts guaranteed at block entry;
    ``transfer(facts, inst)`` applies one instruction's effect in place and
    is what the load-forwarding walk of ``load-elim`` and ``gvn`` runs, so
    their kill rules cannot drift apart from the analysis.
    """

    def __init__(self, function: Function, cfg: Optional[CFG] = None) -> None:
        self.function = function
        self.cfg = cfg if cfg is not None else CFG(function)
        #: block -> facts available at block entry.
        self._entry: Dict[BasicBlock, FactMap] = {}
        if function.blocks:
            self._solve()

    # ------------------------------------------------------------- queries
    def entry_facts(self, block: BasicBlock) -> FactMap:
        """Facts guaranteed to hold when ``block`` is entered (a copy)."""
        return dict(self._entry.get(block, {}))

    def available_value(self, block: BasicBlock, pointer: Value,
                        size: int) -> Optional[Value]:
        """The value known to be at ``pointer`` on entry to ``block``."""
        fact = self._entry.get(block, {}).get(id(pointer))
        if fact is not None and fact.size == size:
            return fact.value
        return None

    # ------------------------------------------------------ transfer rules
    @staticmethod
    def transfer(facts: FactMap, inst: Instruction) -> None:
        """Apply one instruction's memory effect to ``facts`` in place."""
        if isinstance(inst, LoadInst):
            key = id(inst.pointer)
            if key not in facts:
                facts[key] = MemoryFact(inst.pointer,
                                        access_size(inst.pointer), inst)
        elif isinstance(inst, StoreInst):
            value_type = inst.value.type
            size = 8 if value_type.is_void else value_type.size_in_bytes()
            for key, fact in list(facts.items()):
                if alias(inst.pointer, size, fact.pointer, fact.size) \
                        is not AliasResult.NO_ALIAS:
                    del facts[key]
            facts[id(inst.pointer)] = MemoryFact(inst.pointer, size,
                                                 inst.value)
        elif isinstance(inst, CallInst):
            for key, fact in list(facts.items()):
                if not _survives_call(fact):
                    del facts[key]

    def block_exit(self, block: BasicBlock,
                   entry: Optional[FactMap] = None) -> FactMap:
        """Facts at the end of ``block`` given its entry facts."""
        facts = dict(self._entry.get(block, {})) if entry is None \
            else dict(entry)
        for inst in block.instructions:
            self.transfer(facts, inst)
        return facts

    # ------------------------------------------------------------ fixpoint
    @staticmethod
    def _meet(maps: List[FactMap]) -> FactMap:
        """Intersection of predecessor exit facts: identical (pointer,
        size, value) triples only."""
        if not maps:
            return {}
        result = dict(maps[0])
        for other in maps[1:]:
            for key in list(result):
                fact = other.get(key)
                if fact is None or fact != result[key]:
                    del result[key]
            if not result:
                break
        return result

    def _solve(self) -> None:
        order = self.cfg.reverse_postorder
        entry_block = self.function.entry_block
        #: block -> exit facts; None means "not yet visited" (top), which
        #: the meet skips so loop back edges do not zero the header's facts
        #: on the first sweep.
        exits: Dict[BasicBlock, Optional[FactMap]] = \
            {block: None for block in order}
        changed = True
        while changed:
            changed = False
            for block in order:
                if block is entry_block:
                    entry: FactMap = {}
                else:
                    pred_exits = [exits[pred]
                                  for pred in self.cfg.preds.get(block, [])
                                  if pred in exits]
                    known = [facts for facts in pred_exits if facts is not None]
                    if pred_exits and not known:
                        continue  # no predecessor processed yet
                    entry = self._meet(known)
                self._entry[block] = entry
                exit_facts = self.block_exit(block, entry)
                if exits.get(block) != exit_facts:
                    exits[block] = exit_facts
                    changed = True
