"""The symbolic-execution engine as a :class:`VerificationBackend`.

Searcher selection and the solver settings are by name, so a caller can
write ``make_backend("symex<searcher=bfs,rewrite-equalities=off>")``
without touching executor internals.  The solver settings mirror
:class:`~repro.symex.solver.SolverConfig`: ``rewrite-equalities``
accepts ``on``/``off`` (also ``true``/``false``/``1``/``0``), and the
integer ``query-deadline-ms`` sets a per-solver-query wall-clock deadline
(0 = none — see ``docs/robustness.md``).

``caches`` takes a prebuilt :class:`~repro.symex.solver.SharedSolverCaches`
to solve into, so runs (or concurrent service jobs) share what they
learn.  Provenance is ``warm-store`` when an entry primed from a
knowledge store answered a group query, otherwise ``cold``.  The backend
only solves; memos are the store's
(:func:`~repro.service.store.verify_memoized`).
"""

from __future__ import annotations

import time
from typing import Optional

from ..ir import Module
from ..verification import (
    BackendSpecError, VerificationBackend, VerificationOutcome,
    VerificationRequest, register_backend,
)
from .executor import SymexLimits, explore
from .searcher import make_searcher
from .solver import SharedSolverCaches, Solver, SolverConfig

_TRUTHY = {True, 1, "1", "on", "true", "yes"}
_FALSY = {False, 0, "0", "off", "false", "no"}


def _parse_flag(name: str, value: object) -> bool:
    if isinstance(value, str):
        value = value.lower()
    if value in _TRUTHY:
        return True
    if value in _FALSY:
        return False
    raise BackendSpecError(
        f"symex: flag '{name}' must be on/off, got {value!r}")


def _parse_count(name: str, value: object, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BackendSpecError(
            f"symex: '{name}' must be an integer, got {value!r}")
    if value < minimum:
        raise BackendSpecError(
            f"symex: '{name}' must be >= {minimum}, got {value}")
    return value


class SymexBackend(VerificationBackend):
    """Exhaustive bounded symbolic execution (the paper's KLEE stand-in)."""

    name = "symex"

    def __init__(self, searcher: str = "dfs",
                 rewrite_equalities: object = True,
                 query_deadline_ms: object = 0,
                 caches: Optional[SharedSolverCaches] = None) -> None:
        make_searcher(searcher)  # validate the name eagerly
        self.searcher = searcher
        self.solver_config = SolverConfig(
            rewrite_equalities=_parse_flag("rewrite-equalities",
                                           rewrite_equalities),
            query_deadline_seconds=_parse_count(
                "query-deadline-ms", query_deadline_ms, 0) / 1000.0,
        )
        if caches is not None and not isinstance(caches, SharedSolverCaches):
            raise BackendSpecError(
                f"symex: 'caches' must be a SharedSolverCaches object, got "
                f"{caches!r}")
        #: Caller-injected solver caches (``None``: each verification
        #: builds a private set).
        self.caches = caches

    def describe(self) -> str:
        """The canonical spec of the engine configuration: everything
        that can change a verification outcome, and nothing that cannot
        (the injected caches only change how fast it is reached)."""
        parts = []
        if self.searcher != "dfs":
            parts.append(f"searcher={self.searcher}")
        config = self.solver_config
        if not config.rewrite_equalities:
            parts.append("rewrite-equalities=off")
        if config.query_deadline_seconds:
            parts.append(f"query-deadline-ms="
                         f"{round(config.query_deadline_seconds * 1000)}")
        if parts:
            return f"symex<{','.join(parts)}>"
        return "symex"

    def verify(self, module: Module,
               request: VerificationRequest) -> VerificationOutcome:
        limits = SymexLimits(timeout_seconds=request.timeout_seconds,
                             max_instructions=request.max_instructions)
        start = time.perf_counter()
        report = explore(module, request.symbolic_input_bytes,
                         entry=request.entry, searcher=self.searcher,
                         limits=limits,
                         solver=Solver(config=self.solver_config,
                                       shared=self.caches))
        seconds = time.perf_counter() - start
        return VerificationOutcome(
            backend=self.describe(),
            seconds=seconds,
            instructions=report.stats.instructions_interpreted,
            paths=report.stats.total_paths,
            errors=report.stats.paths_errored,
            timed_out=report.stats.timed_out,
            engine_errors=report.stats.engine_errors,
            termination_reason=report.stats.termination_reason,
            bug_signatures=frozenset(report.bug_signatures()),
            solver_stats=report.solver_stats.as_dict(),
            detail=report,
            provenance="warm-store" if report.solver_stats.store_hits
            else "cold",
        )


register_backend("symex", SymexBackend)
