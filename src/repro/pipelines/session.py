"""A stateful compilation session sharing front-end work across compiles.

The paper's workflow compiles the *same* source several times — once per
build configuration (Table 1/3 sweep all levels, the ablation harness
toggles single knobs).  :class:`CompilerSession` parses and semantically
analyses each linked source once; every compile lowers a fresh module
from the cached, analysed translation unit (lowering is deterministic and
side-effect free on the unit, which the test suite pins down) and runs
its pipeline with the pipeline's own
:class:`~repro.analysis.AnalysisManager`.  The session keeps nothing
else: a compile's module and analysis cache live exactly as long as its
:class:`CompilationResult`, and :attr:`CompilerSession.analysis_stats`
is a running total of their counters.

``compile_source`` is a thin wrapper over a one-shot session, and the
experiment harness routes all per-workload compiles through one session.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..analysis import AnalysisManagerStats
from ..frontend import analyze, lower, parse
from ..ir import verify_module
from ..passes import format_pipeline
from .levels import OptLevel, build_pipeline
from .compiler import (
    CompilationResult, CompileOptions, link_sources, linked_prelude_lines,
)


@dataclass
class SessionStats:
    """What a session saved so far."""

    compiles: int = 0
    #: Front-end cache behaviour: a parse is one full parse+sema run.
    frontend_parses: int = 0
    frontend_reuses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "compiles": self.compiles,
            "frontend_parses": self.frontend_parses,
            "frontend_reuses": self.frontend_reuses,
        }


class CompilerSession:
    """A stateful compiler driver: repeated compiles of one source share
    its parsed and analysed translation unit (see module docstring).

    Parameters
    ----------
    default_options:
        Options used when :meth:`compile` is called without any; a copy is
        taken per compile, so the instance handed in is never mutated.
    """

    def __init__(self, default_options: Optional[CompileOptions] = None
                 ) -> None:
        self.default_options = default_options or CompileOptions()
        self.stats = SessionStats()
        #: Analysis-cache counters of every compile so far, summed.
        self.analysis_stats = AnalysisManagerStats()
        #: Linked source -> its parsed and analysed translation unit.
        self._units: Dict[str, object] = {}

    def _analysed_unit(self, full_source: str, prelude_lines: int) -> object:
        unit = self._units.get(full_source)
        if unit is None:
            unit = parse(full_source, prelude_lines=prelude_lines)
            analyze(unit)
            self._units[full_source] = unit
            self.stats.frontend_parses += 1
        else:
            self.stats.frontend_reuses += 1
        return unit

    # ------------------------------------------------------------ compile
    def compile(self, program_source: str,
                options: Optional[CompileOptions] = None,
                level: Optional[OptLevel] = None) -> CompilationResult:
        """Compile ``program_source`` at the requested level.

        ``level`` is a convenience shortcut; when both ``options`` and
        ``level`` are given, ``level`` wins.  The caller's options object is
        never mutated.
        """
        base = options or self.default_options
        options = replace(base) if level is None else replace(base,
                                                              level=level)
        start = time.perf_counter()
        full_source = link_sources(program_source, options)
        unit = self._analysed_unit(
            full_source, linked_prelude_lines(full_source, program_source))

        module = lower(unit, options.module_name)
        module.metadata["opt_level"] = str(options.level)

        pipeline = build_pipeline(
            options.level,
            entry_points=options.entry_points,
            verify_after_each=options.verify_after_each_pass,
            enable_checks=options.enable_runtime_checks,
        )
        pipeline.run_until_fixpoint(module)
        verify_module(module)
        self.stats.compiles += 1
        self.analysis_stats.merge(pipeline.analyses.stats)
        elapsed = time.perf_counter() - start

        return CompilationResult(
            module=module,
            level=options.level,
            compile_seconds=elapsed,
            stats=pipeline.stats,
            instruction_count=module.instruction_count(),
            source_size=len(program_source),
            pass_history=list(pipeline.history),
            analysis_stats=pipeline.analyses.stats,
            pipeline_text=(format_pipeline(pipeline.spec)
                           if pipeline.spec is not None else ""),
        )

    def compile_at_levels(self, program_source: str,
                          levels: Optional[List[OptLevel]] = None,
                          options: Optional[CompileOptions] = None
                          ) -> Dict[OptLevel, CompilationResult]:
        """Compile the same source at several levels (Table 1/3 shape),
        sharing the front end."""
        levels = levels or [OptLevel.O0, OptLevel.O2, OptLevel.O3,
                            OptLevel.OVERIFY]
        return {level: self.compile(program_source, options=options,
                                    level=level)
                for level in levels}
