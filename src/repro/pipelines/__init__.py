"""repro.pipelines — optimization levels, pipelines, and the compiler driver."""

from .levels import (
    CLEANUP, LEVEL_PIPELINES, OSYMBEX, OptLevel,
    build_pipeline, build_pipeline_from_spec, build_pipeline_from_text,
    level_spec, level_spec_string, parse_opt_level, pipeline_description,
    with_entry_points, with_runtime_checks,
)
from .compiler import (
    CompilationResult, CompileOptions, compile_source, link_sources,
)
from .session import CompilerSession, SessionStats

__all__ = [
    "CLEANUP", "LEVEL_PIPELINES", "OSYMBEX", "OptLevel",
    "build_pipeline", "build_pipeline_from_spec", "build_pipeline_from_text",
    "level_spec", "level_spec_string", "parse_opt_level",
    "pipeline_description", "with_entry_points", "with_runtime_checks",
    "CompilationResult", "CompileOptions", "compile_source", "link_sources",
    "CompilerSession", "SessionStats",
]
