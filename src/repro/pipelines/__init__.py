"""repro.pipelines — optimization levels, pipelines, and the compiler driver."""

from .levels import (
    CLEANUP, LEVEL_MAX_ITERATIONS, LEVEL_PIPELINES, OSYMBEX, OptLevel,
    build_pipeline, build_pipeline_from_spec, build_pipeline_from_text,
    describe_levels, level_spec, level_spec_string, parse_opt_level,
    pipeline_description, with_entry_points, with_runtime_checks,
)
from .compiler import (
    CompilationResult, CompileOptions, compile_at_all_levels, compile_source,
    link_sources, linked_prelude_lines,
)
from .session import (
    CompilerSession, PristineAnalysisExchange, SessionStats,
    TRANSFERABLE_ANALYSES,
)

__all__ = [
    "CLEANUP", "LEVEL_MAX_ITERATIONS", "LEVEL_PIPELINES",
    "OSYMBEX", "OptLevel",
    "build_pipeline", "build_pipeline_from_spec", "build_pipeline_from_text",
    "describe_levels", "level_spec", "level_spec_string", "parse_opt_level",
    "pipeline_description", "with_entry_points", "with_runtime_checks",
    "CompilationResult", "CompileOptions", "compile_at_all_levels",
    "compile_source", "link_sources", "linked_prelude_lines",
    "CompilerSession", "PristineAnalysisExchange", "SessionStats",
    "TRANSFERABLE_ANALYSES",
]
