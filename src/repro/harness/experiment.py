"""Shared experiment runner.

One "experiment" is: compile a workload at an optimization level, then (a)
exhaustively verify it with the configured verification backend over a
bounded symbolic input and (b) concretely run it on a sample input.  These
are the measurements all of the paper's tables and figures are built from.

Compilation goes through a :class:`~repro.pipelines.CompilerSession` (one
per workload, shared across the levels of a sweep) and both measurement
phases go through the :class:`~repro.verification.VerificationBackend`
protocol — the verify phase via the configurable backend spec (default
``symex``, searcher selectable by name), the run phase via ``interp``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence

from ..pipelines import (
    CompilationResult, CompileOptions, CompilerSession, OptLevel,
    compile_source,
)
from ..verification import VerificationRequest, make_backend


@dataclass
class ExperimentConfig:
    """Parameters of one compile+verify+run experiment."""

    level: OptLevel
    symbolic_input_bytes: int = 4
    concrete_input: bytes = b"the quick brown fox"
    #: Per-experiment verification budget (the paper used a one-hour budget
    #: per Coreutils program; scale down for a Python-based engine).
    timeout_seconds: float = 60.0
    max_instructions: int = 5_000_000
    enable_runtime_checks: bool = True
    verification_libc: Optional[bool] = None
    #: Verification backend spec (``symex``, ``symex<searcher=bfs>``, ...).
    backend: str = "symex"
    #: Search strategy for path-exploring backends (``dfs``/``bfs``/
    #: ``random``); a searcher named in ``backend`` wins over this.
    searcher: str = "dfs"


@dataclass
class ExperimentResult:
    """The measurements of one experiment (one bar/cell in the paper)."""

    workload: str
    level: OptLevel
    compile_seconds: float
    verify_seconds: float
    run_seconds: float
    static_instructions: int
    interpreted_instructions: int
    concrete_instructions: int
    paths: int
    errors: int
    timed_out: bool
    #: Paths the verify backend abandoned because the *engine* failed
    #: (contained faults, not program bugs); 0 on a healthy run.
    engine_errors: int = 0
    #: Which budget truncated verification ("timeout", "instructions",
    #: "paths", "forks"); "" when exploration finished.
    termination_reason: str = ""
    transform_stats: Dict[str, int] = field(default_factory=dict)
    bug_signatures: frozenset = frozenset()
    return_value: Optional[int] = None
    #: Canonical spec of the backend that produced the verify phase.
    verify_backend: str = "symex"
    #: Constraint-solver counters from the verify phase (solver-backed
    #: backends only; see :class:`repro.symex.SolverStats`).
    solver_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Compile + analysis time: what Figure 4 plots per program."""
        return self.compile_seconds + self.verify_seconds


def verification_request(config: ExperimentConfig) -> VerificationRequest:
    """The backend request corresponding to an experiment config."""
    return VerificationRequest(
        symbolic_input_bytes=config.symbolic_input_bytes,
        concrete_input=config.concrete_input,
        timeout_seconds=config.timeout_seconds,
        max_instructions=config.max_instructions,
    )


def run_experiment(name: str, source: str, config: ExperimentConfig,
                   session: Optional[CompilerSession] = None
                   ) -> ExperimentResult:
    """Compile ``source`` at ``config.level`` and measure verification and
    execution cost.  Pass a session to share front-end work with other
    experiments on the same workload."""
    options = CompileOptions(
        level=config.level,
        enable_runtime_checks=config.enable_runtime_checks,
        verification_libc=config.verification_libc,
    )
    compiled: CompilationResult = compile_source(source, options,
                                                 session=session)

    request = verification_request(config)
    verifier = make_backend(config.backend, searcher=config.searcher)
    verified = verifier.verify(compiled.module, request)
    concrete = make_backend("interp").verify(compiled.module, request)

    return ExperimentResult(
        workload=name,
        level=config.level,
        compile_seconds=compiled.compile_seconds,
        verify_seconds=verified.seconds,
        run_seconds=concrete.seconds,
        static_instructions=compiled.instruction_count,
        interpreted_instructions=verified.instructions,
        concrete_instructions=concrete.instructions,
        paths=verified.paths,
        errors=verified.errors,
        timed_out=verified.timed_out,
        engine_errors=verified.engine_errors,
        termination_reason=verified.termination_reason,
        transform_stats=compiled.stats.as_dict(),
        bug_signatures=verified.bug_signatures,
        return_value=concrete.return_value,
        verify_backend=verified.backend,
        solver_stats=verified.solver_stats,
    )


def run_level_sweep(name: str, source: str, levels: Sequence[OptLevel],
                    base_config: ExperimentConfig,
                    session: Optional[CompilerSession] = None
                    ) -> Dict[OptLevel, ExperimentResult]:
    """Run the same workload at several optimization levels through one
    shared compiler session."""
    session = session or CompilerSession()
    results: Dict[OptLevel, ExperimentResult] = {}
    for level in levels:
        config = replace(base_config, level=level)
        results[level] = run_experiment(name, source, config,
                                        session=session)
    return results
