"""Cached analyses, kept current by the epochs the IR records.

A many-pass pipeline (the whole point of -OVERIFY is to run *more* passes
than -O3) cannot afford to rebuild ``DominatorTree``/``LoopInfo``/``CallGraph``
from scratch in every pass.  :class:`AnalysisManager` lazily computes and
caches per-function analyses (:class:`~repro.analysis.cfg.CFG`,
``DominatorTree``, ``LoopInfo``, ``ValueRangeAnalysis``, ``AvailableMemory``)
and the per-module ``CallGraph``.

Each cache entry records the epoch its analysis depends on, and a lookup
whose epoch has moved since recomputes.  The IR moves the epochs itself, on
every edit, so nothing a pass reports decides what stays cached:

* ``Function.cfg_epoch`` moves only on an edit that can change the
  control-flow graph: a block added or removed, a terminator inserted or
  removed, a branch target replaced.  ``cfg``, ``domtree`` and ``loops`` key
  on it, so they survive passes that rewrite values only.
* ``Function.ir_epoch``, the value epoch, moves on every edit of the body
  (a CFG edit included).  ``ranges`` and ``memory`` key on it.
* ``Module.ir_epoch`` moves on every edit of any function and when a
  function is added or removed.  ``callgraph`` keys on it.

Cache hit/miss/invalidation counters are exposed through
:class:`AnalysisManagerStats`; each pass run's hits and misses land in its
``PassRunRecord``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

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

#: The analyses derived from the control-flow graph alone, keyed on
#: ``Function.cfg_epoch``; the other function analyses read instructions and
#: key on the value epoch ``Function.ir_epoch``.
CFG_DERIVED: Tuple[str, ...] = (
    CFG_ANALYSIS, DOMTREE_ANALYSIS, LOOPS_ANALYSIS)


def _epoch(name: str, function: Function) -> int:
    """The epoch of ``function`` that the analysis ``name`` is keyed on."""
    return function.cfg_epoch if name in CFG_DERIVED else function.ir_epoch


@dataclass
class AnalysisManagerStats:
    """Cache behaviour counters, totalled and broken down per analysis."""

    hits: int = 0
    misses: int = 0
    #: Entries found stale at lookup (each one is then recomputed).
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
    """Lazily computes and caches IR analyses.

    An entry is current exactly while the epoch it was computed at (see the
    module docstring) has not moved; a lookup that finds a stale entry
    counts it in ``stats.invalidations`` and recomputes.
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
        epoch = _epoch(name, function)
        entry = self._function_cache.get(key)
        if entry is not None:
            if entry[0] == epoch:
                self.stats.record_hit(name)
                return entry[2]
            self.stats.invalidations += 1
        self.stats.record_miss(name)
        # Building an analysis may populate its dependencies, but never
        # mutates the IR, so the epoch read above still holds.
        analysis = self._build_function_analysis(name, function)
        self._function_cache[key] = (epoch, function, analysis)
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
        if entry is not None:
            if entry[0] == epoch and entry[1] is module:
                self.stats.record_hit(name)
                return entry[2]
            self.stats.invalidations += 1
        self.stats.record_miss(name)
        if name == CALLGRAPH_ANALYSIS:
            analysis: object = CallGraph(module)
        else:
            raise KeyError(f"unknown module analysis '{name}'")
        self._module_cache[name] = (epoch, module, analysis)
        return analysis

    def invalidate_function(self, function: Function) -> None:
        """Drop every cached analysis for ``function`` (used when a function
        is deleted from the module, so the cache releases its references)."""
        fid = id(function)
        for name in FUNCTION_ANALYSES:
            self._function_cache.pop((name, fid), None)

    # ------------------------------------------------------------- queries
    def is_cached(self, name: str, function: Optional[Function] = None) -> bool:
        """Whether a *currently valid* cache entry exists for ``name``."""
        if function is not None:
            entry = self._function_cache.get((name, id(function)))
            return entry is not None and entry[0] == _epoch(name, function)
        entry = self._module_cache.get(name)
        return entry is not None and entry[0] == entry[1].ir_epoch
