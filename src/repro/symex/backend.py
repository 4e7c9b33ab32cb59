"""The symbolic-execution engine as a :class:`VerificationBackend`.

Searcher selection and the solver settings are by name, so a caller can
write ``make_backend("symex<searcher=bfs,rewrite-equalities=off>")``
without touching executor internals.  The solver settings mirror
:class:`~repro.symex.solver.SolverConfig`: ``rewrite-equalities``
accepts ``on``/``off`` (also ``true``/``false``/``1``/``0``), and the
integer ``query-deadline-ms`` sets a per-solver-query wall-clock deadline
(0 = none — see ``docs/robustness.md``).

Two parameters open the backend to callers that manage solver knowledge
themselves (the verification service, tests):

* ``caches`` — a prebuilt :class:`~repro.symex.solver.SharedSolverCaches`
  the run solves into instead of constructing its own, so consecutive
  runs (or concurrent jobs) share learned results;
* ``store=PATH`` — a :class:`~repro.service.store.SolverKnowledgeStore`
  file: the run primes its caches from it, consults the per-function
  verification memo (an unchanged module/request skips symex entirely),
  and persists everything it learned back on completion.  The outcome's
  ``provenance`` field reports what happened: ``memo-hit``,
  ``warm-store`` (at least one primed entry answered a group query), or
  ``cold``.
"""

from __future__ import annotations

import time
from typing import Optional

from ..faults import StoreError
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
                 store: object = "",
                 caches: Optional[SharedSolverCaches] = None) -> None:
        make_searcher(searcher)  # validate the name eagerly
        self.searcher = searcher
        self.solver_config = SolverConfig(
            rewrite_equalities=_parse_flag("rewrite-equalities",
                                           rewrite_equalities),
            query_deadline_seconds=_parse_count(
                "query-deadline-ms", query_deadline_ms, 0) / 1000.0,
        )
        if store is not None and not isinstance(store, str):
            raise BackendSpecError(
                f"symex: 'store' must be a path string, got {store!r}")
        self.store_path = store or ""
        if caches is not None and not isinstance(caches, SharedSolverCaches):
            raise BackendSpecError(
                f"symex: 'caches' must be a SharedSolverCaches object, got "
                f"{caches!r}")
        #: Caller-injected solver caches.  ``None``: a plain run builds a
        #: private set per verification; a ``store`` run builds one so it
        #: has something to prime and persist.
        self.caches = caches

    def _config_spec(self) -> str:
        """The canonical spec of the engine configuration — everything
        that can change a verification outcome, and nothing that cannot
        (the store path is deliberately excluded: it feeds the memo
        fingerprint, and where knowledge is stored must not change what a
        verification means)."""
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

    def describe(self) -> str:
        spec = self._config_spec()
        if not self.store_path:
            return spec
        store_part = f"store={self.store_path}"
        if spec.endswith(">"):
            return f"{spec[:-1]},{store_part}>"
        return f"{spec}<{store_part}>"

    def verify(self, module: Module,
               request: VerificationRequest) -> VerificationOutcome:
        limits = SymexLimits(timeout_seconds=request.timeout_seconds,
                             max_instructions=request.max_instructions)
        store = None
        memo_key = None
        if self.store_path:
            # Imported lazily: plain symex runs must not pay for (or
            # depend on) the service package.
            from ..service.store import (
                SolverKnowledgeStore, WireError, memo_to_outcome,
                outcome_to_memo, verification_fingerprint,
            )
            store = SolverKnowledgeStore(self.store_path)
            store.load()
            memo_key = verification_fingerprint(module, request,
                                                self._config_spec())
            payload = store.memo_lookup(memo_key)
            if payload is not None:
                try:
                    return memo_to_outcome(payload, backend=self.describe())
                except WireError:
                    pass  # damaged memo: fall through and re-verify
        caches = self.caches
        if caches is None and store is not None:
            caches = SharedSolverCaches(locked=False)
        if store is not None and caches is not None:
            store.prime(caches)
        start = time.perf_counter()
        report = explore(module, request.symbolic_input_bytes,
                         entry=request.entry, searcher=self.searcher,
                         limits=limits,
                         solver=Solver(config=self.solver_config,
                                       shared=caches))
        seconds = time.perf_counter() - start
        provenance = "warm-store" if report.solver_stats.store_hits \
            else "cold"
        outcome = VerificationOutcome(
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
            provenance=provenance,
        )
        if store is not None:
            if caches is not None:
                store.absorb(caches)
            store.memo_record(memo_key, outcome_to_memo(outcome))
            try:
                store.save()
            except StoreError:
                # Persistence is best-effort: the verification stands,
                # the next successful save will carry the knowledge.
                pass
        return outcome


register_backend("symex", SymexBackend)
