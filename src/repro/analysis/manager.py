"""Cached, invalidation-aware analysis management.

A many-pass pipeline (the whole point of -OVERIFY is to run *more* passes
than -O3) cannot afford to rebuild ``DominatorTree``/``LoopInfo``/``CallGraph``
from scratch in every pass.  This module provides the same architecture
LLVM's new pass manager uses:

* :class:`AnalysisManager` lazily computes and caches per-function analyses
  (:class:`~repro.analysis.cfg.CFG`, ``DominatorTree``, ``LoopInfo``,
  ``ValueRangeAnalysis``) and per-module analyses (``CallGraph``).
* Every cache entry is stamped with the function's (or module's)
  *modification epoch* — a counter the IR layer bumps on every structural
  mutation — so a stale entry can never be returned even if a pass
  mis-declares what it preserved.
* Passes return a :class:`PreservedAnalyses` summary; the pass manager feeds
  it back into the analysis manager, which drops what was invalidated and
  re-stamps what was explicitly preserved (e.g. constant folding rewrites
  values but leaves the CFG — and therefore the dominator tree and loop
  structure — intact).

Cache hit/miss/invalidation counters are exposed through
:class:`AnalysisManagerStats` and surface in ``TransformStats`` next to the
paper's Table 3 counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..ir import Function, Module
from .callgraph import CallGraph
from .cfg import CFG
from .dominators import DominatorTree
from .loops import LoopInfo
from .memory_ssa import AvailableMemory
from .value_range import ValueRangeAnalysis

# Analysis names.  Function-level analyses are cached per (analysis,
# function); module-level analyses per analysis.
CFG_ANALYSIS = "cfg"
DOMTREE_ANALYSIS = "domtree"
LOOPS_ANALYSIS = "loops"
RANGES_ANALYSIS = "ranges"
MEMORY_ANALYSIS = "memory"
CALLGRAPH_ANALYSIS = "callgraph"

FUNCTION_ANALYSES: Tuple[str, ...] = (
    CFG_ANALYSIS, DOMTREE_ANALYSIS, LOOPS_ANALYSIS, RANGES_ANALYSIS,
    MEMORY_ANALYSIS)
MODULE_ANALYSES: Tuple[str, ...] = (CALLGRAPH_ANALYSIS,)
ALL_ANALYSES: Tuple[str, ...] = FUNCTION_ANALYSES + MODULE_ANALYSES

#: The analyses derived from the CFG shape: a pass that rewrites values but
#: never touches block structure or branch targets preserves these.
CFG_DERIVED: Tuple[str, ...] = (
    CFG_ANALYSIS, DOMTREE_ANALYSIS, LOOPS_ANALYSIS)


class PreservedAnalyses:
    """What one pass run left intact.

    ``changed`` reports whether the IR was modified at all (the pass
    manager's fixpoint driver consumes it); ``preserves(name)`` reports
    whether the named analysis is still valid for the IR the pass ran on.
    An unchanged run preserves everything by definition.
    """

    __slots__ = ("changed", "_preserved", "_all")

    def __init__(self, changed: bool,
                 preserved: Iterable[str] = (),
                 preserve_all: bool = False) -> None:
        self.changed = changed
        self._all = preserve_all or not changed
        self._preserved: FrozenSet[str] = frozenset(preserved)

    # ------------------------------------------------------- constructors
    @classmethod
    def all(cls, changed: bool = False) -> "PreservedAnalyses":
        """Everything is still valid (nothing changed, or only metadata
        changed — the annotation pass)."""
        return cls(changed, preserve_all=True)

    @classmethod
    def none(cls) -> "PreservedAnalyses":
        """The IR changed and no analysis survives (the conservative
        default for CFG-restructuring passes)."""
        return cls(True)

    @classmethod
    def unchanged(cls) -> "PreservedAnalyses":
        return cls(False, preserve_all=True)

    @classmethod
    def preserving(cls, *names: str) -> "PreservedAnalyses":
        """The IR changed but the named analyses are still valid."""
        return cls(True, preserved=names)

    @classmethod
    def cfg_preserving(cls) -> "PreservedAnalyses":
        """The IR changed but only values did: block structure and branch
        targets are untouched, so all CFG-derived analyses survive."""
        return cls(True, preserved=CFG_DERIVED)

    @classmethod
    def from_legacy(cls, result: object) -> "PreservedAnalyses":
        """Coerce an old-style boolean ``changed`` return value (still the
        conservative contract for simple third-party passes)."""
        if isinstance(result, PreservedAnalyses):
            return result
        return cls.none() if result else cls.unchanged()

    # ------------------------------------------------------------ queries
    def preserves(self, name: str) -> bool:
        return self._all or name in self._preserved

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._all:
            detail = "all"
        else:
            detail = ",".join(sorted(self._preserved)) or "none"
        return f"<PreservedAnalyses changed={self.changed} preserves={detail}>"


@dataclass
class AnalysisManagerStats:
    """Cache behaviour counters, totalled and broken down per analysis."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    #: Always 0 (no analysis is translated from another module); kept
    #: because ``perfbench/local.py`` reads the field by name.
    transfers: int = 0
    hits_by_analysis: Dict[str, int] = field(default_factory=dict)
    misses_by_analysis: Dict[str, int] = field(default_factory=dict)

    def record_hit(self, name: str) -> None:
        self.hits += 1
        self.hits_by_analysis[name] = self.hits_by_analysis.get(name, 0) + 1

    def merge(self, other: "AnalysisManagerStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.invalidations += other.invalidations
        for name, count in other.hits_by_analysis.items():
            self.hits_by_analysis[name] = \
                self.hits_by_analysis.get(name, 0) + count
        for name, count in other.misses_by_analysis.items():
            self.misses_by_analysis[name] = \
                self.misses_by_analysis.get(name, 0) + count

    def record_miss(self, name: str) -> None:
        self.misses += 1
        self.misses_by_analysis[name] = \
            self.misses_by_analysis.get(name, 0) + 1

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.requests
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
            "hits_by_analysis": dict(self.hits_by_analysis),
            "misses_by_analysis": dict(self.misses_by_analysis),
        }


class AnalysisManager:
    """Lazily computes, caches, and invalidates IR analyses.

    Correctness rests on two cooperating mechanisms:

    1. **Epoch stamping** — every cache entry records the function's (or
       module's) modification epoch at computation time; a lookup whose
       epoch no longer matches recomputes.  This is the safety net: a
       mutation that nobody declared still invalidates.
    2. **Preservation declarations** — after a pass runs, the pass manager
       calls :meth:`after_function_pass` / :meth:`after_module_pass` with
       the pass's :class:`PreservedAnalyses`.  Entries the pass did not
       preserve are dropped; entries it explicitly preserved are re-stamped
       to the new epoch (this is what lets a dominator tree survive a
       value-rewriting pass that bumped the epoch without touching the CFG).
    """

    def __init__(self) -> None:
        #: (analysis name, id(function)) -> (epoch, function, analysis)
        self._function_cache: Dict[Tuple[str, int],
                                   Tuple[int, Function, object]] = {}
        #: analysis name -> (epoch, module, analysis)
        self._module_cache: Dict[str, Tuple[int, Module, object]] = {}
        self.stats = AnalysisManagerStats()

    # ----------------------------------------------------------- accessors
    def cfg(self, function: Function) -> CFG:
        return self._get_function(CFG_ANALYSIS, function)  # type: ignore

    def dominator_tree(self, function: Function) -> DominatorTree:
        return self._get_function(DOMTREE_ANALYSIS, function)  # type: ignore

    def loop_info(self, function: Function) -> LoopInfo:
        return self._get_function(LOOPS_ANALYSIS, function)  # type: ignore

    def value_ranges(self, function: Function) -> ValueRangeAnalysis:
        return self._get_function(RANGES_ANALYSIS, function)  # type: ignore

    def available_memory(self, function: Function) -> AvailableMemory:
        return self._get_function(MEMORY_ANALYSIS, function)  # type: ignore

    def call_graph(self, module: Module) -> CallGraph:
        return self._get_module(CALLGRAPH_ANALYSIS, module)  # type: ignore

    # --------------------------------------------------------------- core
    def _get_function(self, name: str, function: Function) -> object:
        key = (name, id(function))
        epoch = function.ir_epoch
        entry = self._function_cache.get(key)
        if entry is not None and entry[0] == epoch:
            self.stats.record_hit(name)
            return entry[2]
        self.stats.record_miss(name)
        analysis = self._build_function_analysis(name, function)
        # Re-read the epoch: building a derived analysis may itself have
        # populated dependencies, but never mutates the IR.
        self._function_cache[key] = (function.ir_epoch, function, analysis)
        return analysis

    def _build_function_analysis(self, name: str,
                                 function: Function) -> object:
        if name == CFG_ANALYSIS:
            return CFG(function)
        if name == DOMTREE_ANALYSIS:
            return DominatorTree(function, cfg=self.cfg(function))
        if name == LOOPS_ANALYSIS:
            return LoopInfo(function, domtree=self.dominator_tree(function),
                            cfg=self.cfg(function))
        if name == RANGES_ANALYSIS:
            return ValueRangeAnalysis(function, cfg=self.cfg(function))
        if name == MEMORY_ANALYSIS:
            return AvailableMemory(function, cfg=self.cfg(function))
        raise KeyError(f"unknown function analysis '{name}'")

    def _get_module(self, name: str, module: Module) -> object:
        epoch = module.ir_epoch
        entry = self._module_cache.get(name)
        if entry is not None and entry[0] == epoch and entry[1] is module:
            self.stats.record_hit(name)
            return entry[2]
        self.stats.record_miss(name)
        if name == CALLGRAPH_ANALYSIS:
            analysis: object = CallGraph(module)
        else:
            raise KeyError(f"unknown module analysis '{name}'")
        self._module_cache[name] = (module.ir_epoch, module, analysis)
        return analysis

    # --------------------------------------------------------- invalidation
    def after_function_pass(self, function: Function,
                            preserved: PreservedAnalyses,
                            epoch_before: Optional[int] = None) -> None:
        """Apply one function-pass run's preservation summary: drop what the
        pass invalidated, re-stamp what it explicitly kept.

        ``epoch_before`` is the function's epoch before the pass ran; only
        entries computed at exactly that epoch may be re-stamped.  When it
        is unknown (None), nothing is re-stamped — preserved entries are
        merely left in place, and the epoch check decides at lookup time.
        """
        if not preserved.changed:
            return
        fid = id(function)
        epoch = function.ir_epoch
        for name in FUNCTION_ANALYSES:
            key = (name, fid)
            entry = self._function_cache.get(key)
            if entry is None:
                continue
            if preserved.preserves(name):
                if epoch_before is not None and entry[0] == epoch_before:
                    self._function_cache[key] = (epoch, function, entry[2])
            else:
                del self._function_cache[key]
                self.stats.invalidations += 1

    def after_module_pass(self, module: Module,
                          preserved: PreservedAnalyses) -> None:
        """Apply one module-pass run's preservation summary.

        Entries the pass did not preserve are dropped.  Preserved entries
        are deliberately *not* re-stamped here: at module grain the
        per-function declarations (already applied by
        :meth:`after_function_pass`) are the only authority on which stale
        entries are safe to promote — anything left with an old epoch is
        simply recomputed on next lookup."""
        if not preserved.changed:
            return
        for name in list(self._module_cache):
            entry = self._module_cache[name]
            if not (preserved.preserves(name) and entry[1] is module):
                del self._module_cache[name]
                self.stats.invalidations += 1
        for key in list(self._function_cache):
            name, _ = key
            if not preserved.preserves(name):
                del self._function_cache[key]
                self.stats.invalidations += 1

    def invalidate_function(self, function: Function) -> None:
        """Drop every cached analysis for ``function`` (used when a function
        is deleted from the module, so the cache releases its references)."""
        fid = id(function)
        for name in FUNCTION_ANALYSES:
            if self._function_cache.pop((name, fid), None) is not None:
                self.stats.invalidations += 1

    def invalidate_all(self) -> None:
        self.stats.invalidations += \
            len(self._function_cache) + len(self._module_cache)
        self._function_cache.clear()
        self._module_cache.clear()

    # ------------------------------------------------------------- queries
    def cached_entry_count(self) -> int:
        return len(self._function_cache) + len(self._module_cache)

    def is_cached(self, name: str, function: Optional[Function] = None) -> bool:
        """Whether a *currently valid* cache entry exists for ``name``."""
        if function is not None:
            entry = self._function_cache.get((name, id(function)))
            return entry is not None and entry[0] == function.ir_epoch
        entry = self._module_cache.get(name)
        return entry is not None and entry[0] == entry[1].ir_epoch
