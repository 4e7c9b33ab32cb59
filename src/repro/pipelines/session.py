"""A stateful compilation session sharing front-end work across compiles.

The paper's workflow compiles the *same* source several times — once per
build configuration (Table 1/3 sweep all levels, the ablation harness
toggles single knobs).  :class:`CompilerSession` parses and semantically
analyses each program text once, on its own.  The C library is linked
the way ``ld`` links ``libc.a``: each variant is a per-process
:class:`~repro.vlibc.archive.LibraryArchive` with one member per
function, and a member is parsed and analysed only when the program (or
another member) first names it, once per process; a program that calls
no library function analyses none.  Both variants define the same API,
so one analysed program unit serves every level.

Every compile lowers a fresh module from the cached units (lowering is
deterministic and side-effect free on them, which the test suite pins
down), linking in only the library functions the program can reach, and
runs its pipeline with the pipeline's own
:class:`~repro.analysis.AnalysisManager`.  The session keeps nothing
else: a compile's module and analysis cache live exactly as long as its
:class:`CompilationResult`, and :attr:`CompilerSession.analysis_stats`
is a running total of their counters.  It keeps at most
:data:`MAX_SESSION_UNITS` program units, dropping the least recently
used, so a session that lives as long as a server stays bounded.

``compile_source`` is a thin wrapper over a one-shot session, and the
experiment harness routes all per-workload compiles through one session.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..analysis import AnalysisManagerStats
from ..frontend import analyze, ast, lower, parse
from ..ir import Module, verify_module
from ..passes import format_pipeline
from ..vlibc import LibraryArchive, libc_source
from .levels import OptLevel, build_pipeline
from .compiler import CompilationResult, CompileOptions, uses_verification_libc

#: Each libc variant's archive, keyed by "is the verification variant";
#: made on first use, never at import, and shared by every session and
#: thread of the process.
_LIBRARIES: Dict[bool, LibraryArchive] = {}

#: Analysed program units one session keeps (least recently used first
#: out).  Re-analysing an evicted text gives an equal unit, so eviction
#: costs time, never output.
MAX_SESSION_UNITS = 256


def library_archive(verification: bool) -> LibraryArchive:
    """The process's archive of the libc variant (the verification one if
    ``verification``), split on first use.  Its members are parsed and
    analysed through this module's ``parse`` and ``analyze``, looked up at
    each load as the program's are, so a wrapper installed on those names
    sees every member load too."""
    archive = _LIBRARIES.get(verification)
    if archive is None:
        archive = _LIBRARIES.setdefault(verification, LibraryArchive(
            libc_source(verification),
            lambda text: parse(text, "<vlibc>"),
            lambda unit, library: analyze(unit, library=library)))
    return archive


@dataclass
class SessionStats:
    """What a session saved so far."""

    compiles: int = 0
    #: Front-end cache behaviour: a parse is one full parse+sema run of a
    #: program text (library members are per process, not per session).
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
    its parsed and analysed translation unit (see module docstring)."""

    def __init__(self) -> None:
        self.stats = SessionStats()
        #: Analysis-cache counters of every compile so far, summed.
        self.analysis_stats = AnalysisManagerStats()
        #: Program text -> its parsed and analysed translation unit, least
        #: recently used first.
        self._units: "OrderedDict[str, ast.TranslationUnit]" = OrderedDict()

    # ---------------------------------------------------------- front end
    def front_end(self, program_source: str,
                  options: CompileOptions) -> Module:
        """``program_source`` linked with the libc variant ``options``
        select and lowered: the unoptimized module a pipeline starts
        from."""
        library = library_archive(uses_verification_libc(options))
        unit = self._units.get(program_source)
        if unit is None:
            unit = analyze(parse(program_source), library=library)
            self._units[program_source] = unit
            if len(self._units) > MAX_SESSION_UNITS:
                self._units.popitem(last=False)
            self.stats.frontend_parses += 1
        else:
            self._units.move_to_end(program_source)
            self.stats.frontend_reuses += 1
        return lower(unit, options.module_name, library=library,
                     entry_points=options.entry_points)

    # ------------------------------------------------------------ compile
    def compile(self, program_source: str,
                options: Optional[CompileOptions] = None,
                level: Optional[OptLevel] = None) -> CompilationResult:
        """Compile ``program_source`` at the requested level.

        ``level`` is a convenience shortcut; when both ``options`` and
        ``level`` are given, ``level`` wins.  The caller's options object is
        never mutated.
        """
        base = options or CompileOptions()
        options = replace(base) if level is None else replace(base,
                                                              level=level)
        start = time.perf_counter()
        module = self.front_end(program_source, options)
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
