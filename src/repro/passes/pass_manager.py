"""Pass manager and transformation statistics.

The pass manager runs a sequence of module/function passes, optionally
verifying the IR after each one, and accumulates the transformation counters
that the paper reports in Table 3 (functions inlined, loops unswitched, loops
unrolled, branches converted to branch-free form).

Every pass receives an :class:`~repro.analysis.AnalysisManager` and
returns whether it changed the module.  Analyses (CFG, dominator tree, loop
info, value ranges, call graph) are requested through the manager, which
caches them across passes and recomputes one only when the IR epoch it is
keyed on has moved.  Cache hit/miss counters land in each
:class:`PassRunRecord`, so the compile-side benefit is visible in the
harness reports.

The manager also skips pass runs that cannot change anything: a pass whose
spec last ran without a change, with no change anywhere since, would see
the same module again and change nothing again (see :class:`_NoChangeMemo`).
That is sound only while every pass keeps one invariant: a "no change"
report means nothing changed, metadata included.  ``run_until_fixpoint``
stops at the first round that changes nothing, which every level pipeline
reaches well before :data:`ROUND_CAP`: no pass edits the module until it
commits to a transformation, so no attempt leaves work for the next round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from ..analysis import AnalysisManager
from ..ir import Function, Instruction, Module, Value, verify_module

#: The most rounds :meth:`PassManager.run_until_fixpoint` runs, a backstop
#: for ``--passes`` pipelines whose passes undo each other.  No level build
#: of a registry program or of fuzz seeds 0-999 needs more than 6.
ROUND_CAP = 8


@dataclass
class TransformStats:
    """Counters incremented by the transformation passes.

    The first four are exactly the rows of the paper's Table 3.
    """

    functions_inlined: int = 0
    loops_unswitched: int = 0
    loops_unrolled: int = 0
    branches_converted: int = 0

    # Additional counters used by tests and the ablation harness.
    allocas_promoted: int = 0
    aggregates_split: int = 0
    instructions_folded: int = 0
    instructions_combined: int = 0
    instructions_removed: int = 0
    redundancies_eliminated: int = 0
    jumps_threaded: int = 0
    blocks_merged: int = 0
    instructions_hoisted: int = 0
    checks_inserted: int = 0
    annotations_added: int = 0
    functions_removed: int = 0

    # Counters for the path-count-oriented passes (SCCP, load elimination,
    # algebraic simplification).
    branch_edges_deleted: int = 0
    blocks_removed: int = 0
    loads_eliminated: int = 0
    expressions_simplified: int = 0
    comparisons_canonicalized: int = 0

    def merge(self, other: "TransformStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def table3_row(self) -> Dict[str, int]:
        """The four counters the paper's Table 3 reports."""
        return {
            "functions_inlined": self.functions_inlined,
            "loops_unswitched": self.loops_unswitched,
            "loops_unrolled": self.loops_unrolled,
            "branches_converted": self.branches_converted,
        }


class Pass:
    """Base class of all passes.

    Subclasses override :meth:`run_on_module` or :meth:`run_on_function`.
    Both receive the pipeline's :class:`AnalysisManager` and return whether
    they changed the IR.
    """

    #: Human-readable pass name (defaults to the class name).
    name: str = ""
    #: Canonical pipeline text of the spec the pass was built from (set by
    #: :func:`~repro.passes.registry.build_pass`).  The pass manager's skip
    #: memo is keyed on it; a pass built by hand has none and always runs.
    spec_text: str = ""

    def __init__(self) -> None:
        if not self.name:
            self.name = type(self).__name__
        self.stats = TransformStats()

    def run_on_module(self, module: Module,
                      analyses: Optional[AnalysisManager] = None
                      ) -> bool:
        """Default module driver: run :meth:`run_on_function` on every
        defined function."""
        if analyses is None:
            analyses = AnalysisManager()
        changed = False
        for function in list(module.defined_functions()):
            changed |= self.run_on_function(function, analyses)
        return changed

    def run_on_function(self, function: Function,
                        analyses: AnalysisManager
                        ) -> bool:  # pragma: no cover
        raise NotImplementedError(
            f"{self.name} implements neither run_on_module nor run_on_function")


def replace_to_fixpoint(
        function: Function,
        simplify: Callable[[Instruction], Optional[Value]]) -> int:
    """The peephole passes' sweep loop: replace every instruction for which
    ``simplify`` returns another value, sweeping ``function`` until a sweep
    replaces nothing.  Returns the number of replacements."""
    replaced = 0
    progress = True
    while progress:
        progress = False
        for block in function.blocks:
            for inst in list(block.instructions):
                if inst.parent is None:
                    continue
                replacement = simplify(inst)
                if replacement is not None and replacement is not inst:
                    inst.replace_all_uses_with(replacement)
                    inst.erase_from_parent()
                    replaced += 1
                    progress = True
    return replaced


def insert_before(anchor: Instruction, new_inst: Instruction,
                  prefix: str) -> Instruction:
    """Insert ``new_inst`` before ``anchor``, naming an unnamed result
    ``<prefix><n>`` (each peephole pass keeps its own prefix)."""
    assert anchor.parent is not None
    if not new_inst.name and not new_inst.type.is_void:
        function = anchor.parent.parent
        if function is not None:
            new_inst.name = function.next_name(prefix)
    anchor.parent.insert_before(anchor, new_inst)
    return new_inst


@dataclass
class PassRunRecord:
    """What happened when one pass ran once."""

    pass_name: str
    changed: bool
    duration_seconds: float
    analysis_cache_hits: int = 0
    analysis_cache_misses: int = 0
    #: The pass did not run: its spec last ran without a change and nothing
    #: has changed since.
    skipped: bool = False


class _NoChangeMemo:
    """The pass specs that are known no-ops on the module as it stands.

    A run that reports no change records its spec.  A reported change, or
    a move of ``module.ir_epoch`` that no pass reported, forgets every
    record.  A recorded spec would therefore see exactly the module it
    last left unchanged; passes are deterministic, so it can be skipped.
    One memo lives for one ``run``/``run_until_fixpoint`` call.
    """

    def __init__(self, module: Module) -> None:
        self._module = module
        self._epoch = module.ir_epoch
        self._unchanged: Set[str] = set()

    def skips(self, spec_text: str) -> bool:
        return spec_text in self._unchanged and \
            self._module.ir_epoch == self._epoch

    def record(self, spec_text: str, changed: bool) -> None:
        if changed or self._module.ir_epoch != self._epoch:
            self._unchanged.clear()
            self._epoch = self._module.ir_epoch
        if not changed and spec_text:
            self._unchanged.add(spec_text)


class PassManager:
    """Runs passes over a module and collects statistics.

    Parameters
    ----------
    verify_after_each:
        Re-run the IR verifier after every pass; slow but catches pass bugs
        close to their source.  Tests enable this.
    analyses:
        The analysis manager shared by every pass in the pipeline.  One is
        created if not supplied; supplying one lets a driver share caches
        across several pipelines over the same module.
    """

    def __init__(self, verify_after_each: bool = False,
                 analyses: Optional[AnalysisManager] = None) -> None:
        self.passes: List[Pass] = []
        self.verify_after_each = verify_after_each
        self.analyses = analyses or AnalysisManager()
        self.stats = TransformStats()
        self.history: List[PassRunRecord] = []
        #: The :class:`~repro.passes.registry.PipelineSpec` this manager was
        #: built from, when it came from the registry-driven builders.
        self.spec = None

    def add(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def extend(self, passes: List[Pass]) -> "PassManager":
        self.passes.extend(passes)
        return self

    def run(self, module: Module) -> bool:
        """Run every pass once, in order.  Returns True if anything changed."""
        return self._run_round(module, _NoChangeMemo(module))

    def run_until_fixpoint(self, module: Module) -> bool:
        """Repeat the whole pipeline until no pass reports a change, for at
        most :data:`ROUND_CAP` rounds.  Returns True if anything changed."""
        memo = _NoChangeMemo(module)
        for round_index in range(ROUND_CAP):
            if not self._run_round(module, memo):
                return round_index > 0
        return True

    def _run_round(self, module: Module, memo: _NoChangeMemo) -> bool:
        changed = False
        for pass_ in self.passes:
            changed |= self._run_one(pass_, module, memo)
        return changed

    def _run_one(self, pass_: Pass, module: Module,
                 memo: _NoChangeMemo) -> bool:
        if memo.skips(pass_.spec_text):
            self.history.append(PassRunRecord(pass_.name, False, 0.0,
                                              skipped=True))
            return False
        cache = self.analyses.stats
        hits_before, misses_before = cache.hits, cache.misses
        start = time.perf_counter()
        changed = pass_.run_on_module(module, self.analyses)
        duration = time.perf_counter() - start
        memo.record(pass_.spec_text, changed)

        hits = cache.hits - hits_before
        misses = cache.misses - misses_before
        self.history.append(PassRunRecord(
            pass_.name, changed, duration,
            analysis_cache_hits=hits, analysis_cache_misses=misses))
        self.stats.merge(pass_.stats)
        pass_.stats = TransformStats()

        if self.verify_after_each:
            try:
                verify_module(module)
            except Exception as exc:
                raise RuntimeError(
                    f"IR verification failed after pass {pass_.name}") from exc
        return changed
