"""repro.passes — the optimization passes and pass manager."""

from ..analysis import AnalysisManager
from .pass_manager import (
    ROUND_CAP, Pass, PassManager, PassRunRecord, TransformStats,
)
from .registry import (
    PassInfo, PassParam, PassSpec, PipelineSpec, PipelineSyntaxError,
    build_pass, build_passes, format_pass, format_pipeline, make_pass_spec,
    parse_pass, parse_pipeline, pass_info, pass_names, register_pass,
    registered_passes,
)
from .mem2reg import PromoteMemoryToRegisters
from .sroa import ScalarReplacementOfAggregates
from .constprop import ConstantPropagation, fold_instruction
from .sccp import (
    BOTTOM_CELL, LatticeCell, SparseConditionalConstantPropagation, TOP_CELL,
    const_cell, meet,
)
from .instcombine import InstCombine
from .algebra import AlgebraicSimplify
from .dce import DeadCodeElimination, GlobalDCE
from .gvn import GlobalValueNumbering
from .load_elim import LoadElimination
from .simplifycfg import SimplifyCFG
from .inline import InlineParams, Inliner, inline_call
from .ifconvert import IfConversion, IfConversionParams
from .jump_threading import JumpThreading
from .licm import LoopInvariantCodeMotion
from .loop_unswitch import LoopUnswitching, UnswitchParams
from .loop_unroll import LoopUnrolling, UnrollParams
from .annotate import AnnotateForVerification
from .checks import CHECK_FAIL_FUNCTION, InsertRuntimeChecks
from .loop_utils import (
    clone_loop, ensure_preheader, insert_lcssa_phis, single_exit_block,
)

__all__ = [
    "AnalysisManager",
    "ROUND_CAP", "Pass", "PassManager", "PassRunRecord", "TransformStats",
    "PassInfo", "PassParam", "PassSpec", "PipelineSpec",
    "PipelineSyntaxError",
    "build_pass", "build_passes", "format_pass", "format_pipeline",
    "make_pass_spec", "parse_pass", "parse_pipeline", "pass_info",
    "pass_names", "register_pass", "registered_passes",
    "PromoteMemoryToRegisters",
    "ScalarReplacementOfAggregates",
    "ConstantPropagation", "fold_instruction",
    "SparseConditionalConstantPropagation",
    "LatticeCell", "TOP_CELL", "BOTTOM_CELL", "const_cell", "meet",
    "InstCombine",
    "AlgebraicSimplify",
    "DeadCodeElimination", "GlobalDCE",
    "GlobalValueNumbering",
    "LoadElimination",
    "SimplifyCFG",
    "InlineParams", "Inliner", "inline_call",
    "IfConversion", "IfConversionParams",
    "JumpThreading",
    "LoopInvariantCodeMotion",
    "LoopUnswitching", "UnswitchParams",
    "LoopUnrolling", "UnrollParams",
    "AnnotateForVerification",
    "CHECK_FAIL_FUNCTION", "InsertRuntimeChecks",
    "clone_loop", "ensure_preheader", "insert_lcssa_phis", "single_exit_block",
]
