"""Program annotations for verification tools.

"Compilers also do not keep information computed during compilation, such as
alias information, variable ranges, loop invariants, or trip counts.  This
information however is priceless for verification tools, and could be easily
preserved in the form of program metadata." (§3, Program annotations.)

This pass records, as instruction/function metadata:

* ``range`` — the interval computed by the value-range analysis,
* ``trip_count`` — exact trip counts of counted loops (on the header's
  terminator),
* ``alias.distinct`` — for loads/stores whose base object is an identified
  alloca or global, the name of that object (two accesses with different
  base names cannot alias),
* ``loop.depth`` — the loop nesting depth of each memory access.

The annotations are printed with the module, for verification tools that
read them.  The backends here do not: nothing in the symbolic executor, the
interpreter or relcheck reads instruction metadata, so annotating changes
no verification result in this repository.
"""

from __future__ import annotations

from typing import Dict

from ..analysis import (
    AnalysisManager, compute_trip_count, full_range, underlying_object,
)
from ..ir import (
    AllocaInst, Function, GlobalVariable, IntType, LoadInst, StoreInst,
)
from .pass_manager import Pass


def _annotate(metadata: Dict[str, object], key: str, value: object) -> bool:
    """Store ``value`` under ``key``; True when that changed the stored
    value (rewriting an equal value is not a change)."""
    if key in metadata and metadata[key] == value:
        return False
    metadata[key] = value
    return True


class AnnotateForVerification(Pass):
    """Attach analysis results as metadata for downstream verification tools."""

    name = "annotate"

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager) -> bool:
        if function.is_declaration:
            return False
        changed = False
        ranges = analyses.value_ranges(function)
        loop_info = analyses.loop_info(function)

        for block in function.blocks:
            depth = loop_info.loop_depth(block)
            for inst in block.instructions:
                if isinstance(inst.type, IntType):
                    interval = ranges.range_of(inst)
                    if interval is not None and \
                            interval != full_range(inst.type) and \
                            _annotate(inst.metadata, "range",
                                      (interval.low, interval.high)):
                        self.stats.annotations_added += 1
                        changed = True
                if isinstance(inst, (LoadInst, StoreInst)):
                    pointer = inst.pointer
                    base = underlying_object(pointer).base
                    if isinstance(base, (AllocaInst, GlobalVariable)) and \
                            _annotate(inst.metadata, "alias.distinct",
                                      base.name):
                        self.stats.annotations_added += 1
                        changed = True
                    if depth:
                        changed |= _annotate(inst.metadata, "loop.depth",
                                             depth)

        for loop in loop_info.loops:
            trip = compute_trip_count(loop)
            if trip is not None:
                term = loop.header.terminator
                if term is not None and \
                        _annotate(term.metadata, "trip_count", trip.count):
                    self.stats.annotations_added += 1
                    changed = True
        changed |= _annotate(function.metadata,
                             "annotated_for_verification", True)
        # A re-run that finds every value already in place reports no
        # change, so it does not force another fixpoint round.
        return changed


from .registry import register_pass

register_pass(
    "annotate", AnnotateForVerification,
    description="attach verification metadata (trip counts, value ranges)")
