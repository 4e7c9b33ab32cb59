"""The compiler driver: MiniC source -> optimized IR module.

This is the public entry point a user of the library calls.  It mirrors the
paper's Figure 3 build chain: the same source can be built in a debug
configuration (``-O0``), a release configuration (``-O3``) or a verification
configuration (``-OVERIFY``), and the -OVERIFY configuration additionally
links the verification-optimized C library.

:func:`compile_source` is a thin wrapper over a one-shot
:class:`repro.pipelines.session.CompilerSession`; a level sweep calls
:meth:`~repro.pipelines.session.CompilerSession.compile_at_levels` on one
shared session, which is what lets it parse each linked source once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..analysis import AnalysisManagerStats
from ..ir import Module
from ..passes import PassRunRecord, TransformStats
from ..vlibc import libc_source
from .levels import OptLevel


@dataclass
class CompileOptions:
    """Options accepted by :func:`compile_source`."""

    level: OptLevel = OptLevel.O0
    #: Link the C library (most workloads need it; tiny kernels may not).
    link_libc: bool = True
    #: Override which libc variant is linked.  By default -OVERIFY links the
    #: verification-optimized variant and every other level links the
    #: execution-optimized one, exactly as §3 ("Library-level changes")
    #: prescribes.
    verification_libc: Optional[bool] = None
    #: Functions that must survive dead-function elimination.
    entry_points: Set[str] = field(default_factory=lambda: {"main"})
    #: Run the IR verifier after every pass (slow; used in tests).
    verify_after_each_pass: bool = False
    #: Let -OVERIFY insert runtime checks (ablation knob).
    enable_runtime_checks: bool = True
    module_name: str = "program"


@dataclass
class CompilationResult:
    """What the driver returns: the module plus compilation statistics."""

    module: Module
    level: OptLevel
    compile_seconds: float
    stats: TransformStats
    instruction_count: int
    source_size: int
    #: One record per pass execution (name, changed, duration, cache
    #: hits/misses) — the per-pass timing the harness reports.
    pass_history: List[PassRunRecord] = field(default_factory=list)
    #: Aggregate analysis-cache behaviour of the whole pipeline run.
    analysis_stats: Optional[AnalysisManagerStats] = None
    #: The pipeline that ran, in the registry's textual syntax.
    pipeline_text: str = ""

    def table3_row(self) -> Dict[str, int]:
        return self.stats.table3_row()


def link_sources(program_source: str, options: CompileOptions) -> str:
    """Combine the program with the selected C library variant.

    Linking is textual (a single translation unit), which mirrors how the
    KLEE tool chain links its special uClibc before analysis.
    """
    if not options.link_libc:
        return program_source
    use_verification_libc = options.verification_libc
    if use_verification_libc is None:
        use_verification_libc = options.level.is_verification_oriented
    return libc_source(use_verification_libc) + "\n" + program_source


def linked_prelude_lines(full_source: str, program_source: str) -> int:
    """How many lines :func:`link_sources` put in front of
    ``program_source`` in ``full_source`` (0 when nothing was linked).
    The front end reports locations in those lines as the prelude's, and
    counts the program's lines from the line after them."""
    return full_source.count("\n", 0, len(full_source) - len(program_source))


def compile_source(program_source: str,
                   options: Optional[CompileOptions] = None,
                   level: Optional[OptLevel] = None,
                   session: Optional["CompilerSession"] = None
                   ) -> CompilationResult:
    """Compile MiniC ``program_source`` at the requested optimization level.

    ``level`` is a convenience shortcut; when both ``options`` and ``level``
    are given, ``level`` wins (the caller's ``options`` object is never
    mutated).  Pass a :class:`~repro.pipelines.session.CompilerSession` to
    share front-end work across calls; without one, a one-shot session is
    used.
    """
    from .session import CompilerSession

    driver = session or CompilerSession()
    return driver.compile(program_source, options=options, level=level)
