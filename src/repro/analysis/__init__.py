"""repro.analysis — analyses over the IR (CFG, dominators, loops, aliasing,
call graph, value ranges, static metrics)."""

from .cfg import (
    CFG, postorder, predecessor_map, predecessors, reachable_blocks,
    remove_unreachable_blocks, reverse_postorder, split_edge, successors,
    unreachable_blocks,
)
from .dominators import DominatorTree
from .loops import Loop, LoopInfo, TripCount, compute_trip_count
from .callgraph import CallGraph
from .alias import (
    AliasResult, PointerInfo, alias, alloca_address_escapes, is_speculatable,
    underlying_object,
)
from .metrics import (
    FunctionMetrics, ModuleMetrics, function_metrics, module_metrics,
)
from .value_range import Interval, ValueRangeAnalysis, full_range
from .memory_ssa import AvailableMemory, FactMap, MemoryFact, access_size
from .manager import (
    ALL_ANALYSES, CALLGRAPH_ANALYSIS, CFG_ANALYSIS, CFG_DERIVED,
    DOMTREE_ANALYSIS, FUNCTION_ANALYSES, LOOPS_ANALYSIS, MEMORY_ANALYSIS,
    MODULE_ANALYSES, RANGES_ANALYSIS, AnalysisManager, AnalysisManagerStats,
)

__all__ = [
    "CFG",
    "postorder", "predecessor_map", "predecessors", "reachable_blocks",
    "remove_unreachable_blocks", "reverse_postorder", "split_edge",
    "successors", "unreachable_blocks",
    "DominatorTree",
    "Loop", "LoopInfo", "TripCount", "compute_trip_count",
    "CallGraph",
    "AliasResult", "PointerInfo", "alias", "alloca_address_escapes",
    "is_speculatable", "underlying_object",
    "FunctionMetrics", "ModuleMetrics", "function_metrics", "module_metrics",
    "Interval", "ValueRangeAnalysis", "full_range",
    "AvailableMemory", "FactMap", "MemoryFact", "access_size",
    "AnalysisManager", "AnalysisManagerStats",
    "ALL_ANALYSES", "FUNCTION_ANALYSES", "MODULE_ANALYSES", "CFG_DERIVED",
    "CFG_ANALYSIS", "DOMTREE_ANALYSIS", "LOOPS_ANALYSIS", "RANGES_ANALYSIS",
    "MEMORY_ANALYSIS", "CALLGRAPH_ANALYSIS",
]
