"""Cross-level translation validation: prove two compilations equivalent.

The -OVERIFY bargain — transform aggressively because a verifier, not a
human, consumes the output — only holds if the optimized module is
*equivalent* to the unoptimized one.  The concrete differential (fuzz
oracle family 3) samples that equivalence; this module proves it per
path, KestRel-style: align the two modules into a lockstep product over
the **same symbolic input** and check agreement path by path.

The product construction exploits an asymmetry: both modules' entry
states are built by
:meth:`~repro.symex.executor.SymbolicExecutor.make_initial_state`, which
names the symbolic input bytes ``in_0 .. in_{n-1}`` identically in both.
So a path condition of module A *is already* a formula over module B's
input:

1. **Explore A** (the reference, default -O0) exhaustively with the
   existing engine's one exploration loop
   (:class:`~repro.symex.parallel.ParallelExecutor`, a
   :class:`~repro.symex.executor.SymbolicExecutor`), and a state sink
   captures every finished path's constraints and symbolic return value.
2. **Replay B under each A path**: seed a fresh initial B state with the
   A path's constraints (``add_constraint`` each), then explore.  Every
   branch the A condition decides is never forked, so the replay
   typically walks a single B path (more when B branches on something A
   did not — each residual B path is checked).
3. **Discharge agreement**:

   * A completed with value ``ret_a``, B completed with ``ret_b`` — one
     solver query asks whether ``ret_a != ret_b`` is satisfiable
     conjoined with the *joint* path condition (the B state already
     carries both sides' constraints).  UNSAT proves the path; SAT
     yields a concrete counterexample input via the deterministic
     :meth:`~repro.symex.solver.Solver.concretization_model`.
     Equality rewriting usually folds the disequality to a constant
     first (``equivalence_folded``), costing no query at all.
   * A trapped — B must trap with a compatible kind on that input
     region.  A trap that B *deleted* is a miscompile unless its kind is
     explicitly whitelisted (optimization-licensed deletion, e.g. a
     div-by-zero the caller vouches is unreachable); whitelisted
     deletions are counted, never silent.  A trap B *introduced* is
     always a divergence.

Queries route through :class:`~repro.symex.solver.SharedSolverCaches`,
so the A exploration's branch work pre-pays most replay queries, and the
one table of a :class:`~repro.service.store.SolverKnowledgeStore` makes
warm reruns cache-dominated — plus a whole-run memo keyed by both
modules' printed IR that skips the product entirely for an unchanged pair.

Determinism: verdicts, divergences, counterexamples, and every
:class:`RelcheckStats` counter come out the same on every run — phase 1
is one exploration loop, finished A states are put in a canonical
wire-form order before replay, each replay is sequential and
self-contained, and counterexamples come from ``concretization_model``,
whose model does not depend on what the caches hold.  The exception is a
per-query wall-clock deadline (``query_deadline_seconds``): where one
fires depends on machine speed.  ``tests/test_parallel_determinism.py``
pins cold and warm shared caches, and every searcher, to the same report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..interp.errors import ErrorKind
from ..ir import Module
from ..symex.executor import SymbolicExecutor, SymexLimits, SymexReport
from ..symex.expr import Expr, ExprOp
from ..symex.facts import resolve_selects, unary_facts
from ..symex.parallel import ParallelExecutor
from ..symex.simplify import binary, zext
from ..symex.solver import (
    SharedSolverCaches, Solver, SolverConfig, SolverStats,
)
from ..symex.state import ExecutionState, StateStatus

#: Trap kinds the runtime-checks pass may re-spell as an explicit
#: CHECK_FAILURE (a guard firing instead of the memory fault it guards).
#: Any two kinds inside this set count as the *same* trap across levels.
_CHECK_COMPATIBLE = frozenset({
    ErrorKind.NULL_DEREFERENCE,
    ErrorKind.OUT_OF_BOUNDS,
    ErrorKind.CHECK_FAILURE,
})


def _traps_match(kind_a: ErrorKind, kind_b: ErrorKind) -> bool:
    if kind_a is kind_b:
        return True
    return kind_a in _CHECK_COMPATIBLE and kind_b in _CHECK_COMPATIBLE


#: Budgets of each per-path B replay.  A replay usually walks one path; the
#: caps only bound pathological residual branching.
REPLAY_MAX_PATHS = 64
REPLAY_MAX_INSTRUCTIONS = 500_000


@dataclass(frozen=True)
class RelcheckConfig:
    """Budgets and semantics knobs of one relcheck run.

    ``workers`` must be 1: exploration is one loop.  The field is kept
    because ``perfbench/local.py`` passes ``workers=1`` by name.
    """

    input_bytes: int = 4
    workers: int = 1
    searcher: str = "dfs"
    #: Budgets of the reference (A) exploration.
    max_paths: int = 512
    max_instructions: int = 2_000_000
    max_forks: int = 4_096
    timeout_seconds: float = 60.0
    #: Per-solver-query wall-clock cap, 0 = none (see
    #: :attr:`~repro.symex.solver.SolverConfig.query_deadline_seconds`).
    query_deadline_seconds: float = 0.0
    #: Normalized trap-kind *values* (:attr:`ErrorKind.value`, e.g.
    #: ``"division by zero"``) whose deletion by the optimized module is
    #: licensed.  Deletions are still counted
    #: (:attr:`RelcheckStats.whitelisted_trap_deletions`), never silent.
    trap_whitelist: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if self.workers != 1:
            raise ValueError(f"relcheck explores in one loop: workers must "
                             f"be 1, got {self.workers}")

    def limits(self) -> SymexLimits:
        return SymexLimits(max_paths=self.max_paths,
                           max_instructions=self.max_instructions,
                           max_forks=self.max_forks,
                           timeout_seconds=self.timeout_seconds)

    def replay_limits(self) -> SymexLimits:
        return SymexLimits(max_paths=REPLAY_MAX_PATHS,
                           max_instructions=REPLAY_MAX_INSTRUCTIONS,
                           max_forks=REPLAY_MAX_PATHS,
                           timeout_seconds=self.timeout_seconds)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            query_deadline_seconds=self.query_deadline_seconds)

    def spec(self) -> str:
        """Canonical text of every knob that can change a recorded
        verdict — the memo-key contribution of the configuration (not the
        wall-clock budget: a truncated report is never recorded)."""
        return json.dumps({
            "input_bytes": self.input_bytes,
            "searcher": self.searcher,
            "max_paths": self.max_paths,
            "max_instructions": self.max_instructions,
            "max_forks": self.max_forks,
            "query_deadline_seconds": self.query_deadline_seconds,
            "trap_whitelist": sorted(self.trap_whitelist),
        }, sort_keys=True, separators=(",", ":"))


@dataclass
class RelcheckStats:
    """Counters of one relcheck run (reproducible; see the module
    docstring)."""

    #: A paths that completed normally and were checked for return-value
    #: agreement.
    paths_checked: int = 0
    #: Of those, paths whose every residual B completion was proven equal.
    paths_proved: int = 0
    #: A paths that trapped and were checked for bug-signature agreement.
    trap_paths_checked: int = 0
    #: Trap paths where B trapped with a compatible kind.
    trap_agreements: int = 0
    #: Trap paths whose deletion by B was licensed by the whitelist.
    whitelisted_trap_deletions: int = 0
    #: Disequality queries actually sent to the solver.
    equivalence_queries: int = 0
    #: Disequalities folded to a constant by rewriting (no query needed).
    equivalence_folded: int = 0
    #: ITE nodes resolved because the joint path condition decides their
    #: condition (see ``_resolve_selects``).
    selects_resolved: int = 0
    #: Finished states discarded because their path condition turned out
    #: infeasible — the engine forks on conservative "maybe satisfiable"
    #: answers, so a budget-exhausted query can materialize a path that
    #: does not exist.  Equivalence holds vacuously on them.
    phantom_paths: int = 0
    #: Finished B states produced across all replays.
    replay_paths: int = 0
    divergences: int = 0
    #: Paths with no verdict: replay truncated, an inexact solver answer,
    #: or constraints over uncorrelated havoc variables.
    unknown_paths: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def merge(self, other: "RelcheckStats") -> None:
        for field_info in fields(self):
            name = field_info.name
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class PathVerdict:
    """The outcome of checking one A path against B."""

    index: int
    #: "return" (A completed) or "trap" (A errored).
    kind: str
    #: "proved" | "agree" | "whitelisted" | "diverged" | "unknown"
    #: | "phantom" (the A path's own condition is infeasible — the engine
    #: forked it on a conservative solver answer; equivalence is vacuous).
    status: str
    detail: str = ""
    #: Concrete input bytes witnessing a divergence (replayable through
    #: the interpreter), when one was derivable.
    counterexample: Optional[bytes] = None


@dataclass
class RelcheckDivergence:
    """One proven disagreement between the two modules."""

    #: "return-value" | "trap-deleted" | "trap-introduced" | "trap-kind"
    #: | "engine".
    kind: str
    detail: str
    counterexample: Optional[bytes] = None

    def describe(self) -> str:
        witness = "" if self.counterexample is None \
            else f" (input {self.counterexample.hex()})"
        return f"[{self.kind}] {self.detail}{witness}"


@dataclass
class RelcheckReport:
    """Everything one relcheck run produces."""

    pair: Tuple[str, str]
    input_bytes: int
    stats: RelcheckStats
    verdicts: List[PathVerdict] = field(default_factory=list)
    divergences: List[RelcheckDivergence] = field(default_factory=list)
    #: True when any budget truncated the A exploration or a replay —
    #: "clean" then means "no divergence found", not "equivalent".
    truncated: bool = False
    #: "cold", "warm-store" (an entry primed from a knowledge store
    #: answered a group query) or "memo-hit", as for verification.
    provenance: str = "cold"
    solver_stats: SolverStats = field(default_factory=SolverStats)

    @property
    def clean(self) -> bool:
        return not self.divergences


# --------------------------------------------------------------- internals

def _wire_text(expr: Expr) -> str:
    """Canonical JSON of an expression's wire form (hash-seed- and
    interning-independent; see :mod:`repro.service.store`)."""
    from ..service.store import expr_to_wire
    return json.dumps(expr_to_wire(expr), sort_keys=True,
                      separators=(",", ":"))


def _state_sort_key(state: ExecutionState) -> tuple:
    """A canonical identity for a finished state: the searcher decides the
    order states *arrive* in, so replay order (and hence verdict indexes)
    comes from content instead."""
    constraint_text = tuple(sorted(_wire_text(c) for c in state.constraints))
    return_text = "" if state.return_value is None \
        else _wire_text(state.return_value)
    error_text = "" if state.error is None else "|".join(
        (state.error.kind.value, state.error.function, state.error.block))
    return (state.status.value, len(state.constraints),
            state.instructions_executed, constraint_text, return_text,
            error_text)


def _input_only(state: ExecutionState, extra: Optional[Expr]) -> bool:
    """Whether the path's constraints (and ``extra``, the return value)
    mention only the shared input bytes.  Unknown externals havoc a fresh
    ``ext_*`` variable per call site — those are *uncorrelated* between
    the two modules, so no cross-module formula over them is meaningful."""
    names: set = set()
    for constraint in state.constraints:
        names |= constraint.variables()
    if extra is not None:
        names |= extra.variables()
    return all(name.startswith("in_") for name in names)


def _witness(state: ExecutionState, solver: Solver,
             input_bytes: int) -> Optional[bytes]:
    """A concrete input satisfying the state's path condition, via the
    deterministic concretization search (cache-content-independent, so
    counterexamples are reproducible across runs and cache states)."""
    varfree, groups = state.full_partition()
    model = solver.concretization_model(varfree, groups)
    if model is None:
        return None
    return bytes(model.get(f"in_{i}", 0) & 0xFF for i in range(input_bytes))


def _resolve_selects(expr: Expr, facts: Dict[str, Tuple[Expr, ...]],
                     solver: Solver, cache: Dict[Expr, Expr],
                     stats: RelcheckStats) -> Expr:
    """Simplify ``expr`` under a path condition by resolving ITE nodes
    whose condition the path's single-variable facts decide
    (:func:`repro.symex.facts.resolve_selects`, with bookkeeping).

    If-conversion (``ifconvert``, on at -O2 and above) turns branches
    into selects, so the optimized module's expressions are often
    ite-trees over conditions the reference path's constraints have
    already settled — e.g. wc classifies every byte, and the -O0 path
    condition pins each classification.  The disequality then folds to a
    constant instead of handing the solver a multi-byte search."""
    def bump() -> None:
        stats.selects_resolved += 1
    return resolve_selects(expr, facts, solver, cache, on_resolve=bump)


class _PathChecker:
    """Checks one finished A path against module B (phase 2 work unit).

    Each instance owns its stats and solver; :func:`relcheck_modules`
    sums them after the path.  Only the solver *caches* are shared."""

    def __init__(self, module_b: Module, entry: str, config: RelcheckConfig,
                 caches: SharedSolverCaches) -> None:
        self.module_b = module_b
        self.entry = entry
        self.config = config
        self.stats = RelcheckStats()
        #: One solver for the replay and the checks on its paths, so its
        #: stats hold all of this path's solver work.
        self.solver = Solver(config=config.solver_config(), shared=caches)
        self.divergences: List[RelcheckDivergence] = []
        self.truncated = False

    def diverge(self, kind: str, detail: str,
                counterexample: Optional[bytes]) -> RelcheckDivergence:
        divergence = RelcheckDivergence(kind, detail, counterexample)
        self.divergences.append(divergence)
        self.stats.divergences += 1
        return divergence

    def check(self, index: int, a_state: ExecutionState) -> PathVerdict:
        kind = "return" if a_state.status is StateStatus.COMPLETED else "trap"
        if not _input_only(a_state, a_state.return_value):
            self.stats.unknown_paths += 1
            return PathVerdict(index, kind, "unknown",
                              "path constrains havoc variables that do not "
                              "correlate across modules")
        # The engine forks on conservative "maybe satisfiable" answers, so
        # a finished state is only a *candidate* path; discard it outright
        # when its own condition is exactly infeasible, and remember the
        # concrete witness otherwise — every divergence verdict (except
        # "engine") must be backed by one.
        feasible, a_witness = self._confirm(a_state)
        if feasible is False:
            self.stats.phantom_paths += 1
            return PathVerdict(index, kind, "phantom",
                              "path condition is infeasible (forked on a "
                              "conservative solver answer)")
        b_states, report_b = self._replay(a_state)
        self.stats.replay_paths += len(b_states)
        if report_b.stats.engine_errors > 0:
            detail = "; ".join(report_b.diagnostics) or \
                "replay engine failed"
            self.diverge("engine",
                         f"path {index}: optimized-module replay hit an "
                         f"engine error ({detail})", a_witness)
            return PathVerdict(index, kind, "diverged",
                              "replay engine error", a_witness)
        b_truncated = bool(report_b.stats.termination_reason) or \
            report_b.stats.paths_terminated > 0
        if b_truncated:
            self.truncated = True
        if a_state.status is StateStatus.COMPLETED:
            verdict = self._check_return(index, a_state, b_states)
        else:
            verdict = self._check_trap(index, a_state, b_states, a_witness)
        if b_truncated and verdict.status in ("proved", "agree",
                                              "whitelisted"):
            # A truncated replay may have hidden a diverging residual
            # B path; a positive verdict cannot be trusted.
            self.stats.unknown_paths += 1
            return PathVerdict(index, kind, "unknown",
                              "replay truncated: " +
                              (report_b.stats.termination_reason or
                               "states terminated"))
        return verdict

    # ---------------------------------------------------------- replay
    def _replay(self, a_state: ExecutionState
                ) -> Tuple[List[ExecutionState], SymexReport]:
        finished: List[ExecutionState] = []
        engine = SymbolicExecutor(
            self.module_b, entry=self.entry, searcher="dfs",
            solver=self.solver, limits=self.config.replay_limits(),
            state_sink=finished.append)
        seeded = engine.make_initial_state(self.config.input_bytes)
        for constraint in a_state.constraints:
            seeded.add_constraint(constraint)
        report = engine.run_seeded(seeded)
        finished.sort(key=_state_sort_key)
        return finished, report

    # -------------------------------------------- feasibility confirmation
    def _confirm(self, state: ExecutionState
                 ) -> Tuple[Optional[bool], Optional[bytes]]:
        """Exact feasibility of the state's path condition, plus a
        deterministic concrete witness when it is feasible.

        (True, input) = feasible, with a model; (False, None) = provably
        infeasible (a phantom path); (None, None) = undecidable within
        budget.  Multi-variable constraints are first simplified against
        the path's unary facts — the ite-chains ``ifconvert`` leaves
        behind often fold to constants this way, keeping the residual
        system inside the solver's exact regime."""
        facts = unary_facts(state.constraints)
        cache: Dict[Expr, Expr] = {}
        scratch = ExecutionState()
        for constraint in state.constraints:
            resolved = constraint
            if len(constraint.variables()) > 1:
                # Unary constraints ARE the facts; resolving one against
                # itself could erase it from the conjunction.
                resolved = _resolve_selects(constraint, facts, self.solver,
                                            cache, self.stats)
            if resolved.is_constant:
                if resolved.value == 0:
                    return False, None
                continue
            scratch.add_constraint(resolved)
        varfree, groups = scratch.full_partition()
        result = self.solver.check_partition(varfree, groups)
        if not result.satisfiable:
            return (False, None) if result.exact else (None, None)
        if not result.exact:
            return None, None
        witness = _witness(scratch, self.solver, self.config.input_bytes)
        if witness is None:
            return None, None
        return True, witness

    # ------------------------------------------------- return agreement
    def _check_return(self, index: int, a_state: ExecutionState,
                      b_states: List[ExecutionState]) -> PathVerdict:
        self.stats.paths_checked += 1
        if not b_states:
            self.stats.unknown_paths += 1
            return PathVerdict(index, "return", "unknown",
                              "replay produced no finished path")
        unknown_detail = ""
        live_b: List[ExecutionState] = []
        for b_state in b_states:
            if b_state.status is not StateStatus.ERROR:
                live_b.append(b_state)
                continue
            kind_b = b_state.error.kind.value
            feasible, witness = self._confirm(b_state)
            if feasible is False:
                self.stats.phantom_paths += 1
                continue
            if feasible is None:
                unknown_detail = (f"possible introduced trap ({kind_b}) "
                                  "could not be confirmed within the "
                                  "solver budget")
                continue
            self.diverge("trap-introduced",
                         f"path {index}: optimized module traps "
                         f"({kind_b}) where reference returns", witness)
            return PathVerdict(index, "return", "diverged",
                              f"trap introduced: {kind_b}", witness)
        for b_state in live_b:
            proved, detail, witness = self._returns_equal(a_state, b_state)
            if proved is False:
                self.diverge("return-value", f"path {index}: {detail}",
                             witness)
                return PathVerdict(index, "return", "diverged", detail,
                                  witness)
            if proved is None:
                unknown_detail = detail
        if not live_b and not unknown_detail:
            unknown_detail = "every replay path was infeasible"
        if unknown_detail:
            self.stats.unknown_paths += 1
            self.truncated = True
            return PathVerdict(index, "return", "unknown", unknown_detail)
        self.stats.paths_proved += 1
        return PathVerdict(index, "return", "proved")

    def _returns_equal(self, a_state: ExecutionState,
                       b_state: ExecutionState
                       ) -> Tuple[Optional[bool], str, Optional[bytes]]:
        """(proved?, detail, counterexample): True = equal on every model
        of the joint path condition, False = a model disagrees, None =
        the solver could not decide within budget."""
        ret_a, ret_b = a_state.return_value, b_state.return_value
        if ret_a is None and ret_b is None:
            return True, "", None
        if ret_a is None or ret_b is None:
            return self._confirmed_divergence(
                b_state, "one module returns a value, the other void")
        width = max(ret_a.width, ret_b.width)
        disequal = binary(ExprOp.NE, zext(ret_a, width), zext(ret_b, width))
        # The B state's rewrite map holds equalities from *both* path
        # conditions (the A constraints were seeded through
        # ``add_constraint``), so this usually folds to a constant.
        disequal = b_state.rewrite(disequal)
        if not disequal.is_constant:
            resolve_cache: Dict[Expr, Expr] = {}
            disequal = _resolve_selects(
                disequal, unary_facts(b_state.constraints), self.solver,
                resolve_cache, self.stats)
        if disequal.is_constant:
            self.stats.equivalence_folded += 1
            if disequal.value == 0:
                return True, "", None
            return self._confirmed_divergence(
                b_state, "return values provably differ")
        self.stats.equivalence_queries += 1
        scratch = b_state.fork()
        scratch.add_constraint(disequal)
        varfree, groups = scratch.full_partition()
        result = self.solver.check_partition(varfree, groups)
        if not result.satisfiable:
            return True, "", None
        if not result.exact:
            return None, "equivalence query exhausted the solver budget", \
                None
        witness = _witness(scratch, self.solver, self.config.input_bytes)
        if witness is None:
            return None, ("return-value divergence model could not be "
                          "concretized"), None
        return False, "return values differ on a satisfiable input", witness

    def _confirmed_divergence(self, b_state: ExecutionState, detail: str
                              ) -> Tuple[Optional[bool], str, Optional[bytes]]:
        """Turn a provable-under-the-path-condition disagreement into a
        verdict: real only if the path itself is feasible (with witness),
        vacuously true on a phantom path, undecidable otherwise."""
        feasible, witness = self._confirm(b_state)
        if feasible is False:
            self.stats.phantom_paths += 1
            return True, "", None
        if feasible is None:
            return None, detail + " (no confirmable witness)", None
        return False, detail, witness

    # --------------------------------------------------- trap agreement
    def _check_trap(self, index: int, a_state: ExecutionState,
                    b_states: List[ExecutionState],
                    a_witness: Optional[bytes]) -> PathVerdict:
        self.stats.trap_paths_checked += 1
        kind_a = a_state.error.kind
        if not b_states:
            self.stats.unknown_paths += 1
            return PathVerdict(index, "trap", "unknown",
                              "replay produced no finished path")
        b_errors: List[ExecutionState] = []
        for b_state in b_states:
            if b_state.status is not StateStatus.ERROR:
                continue
            # A phantom B error must not fake an agreement (masking a
            # real trap deletion) or a trap-kind divergence.
            feasible, _ = self._confirm(b_state)
            if feasible is False:
                self.stats.phantom_paths += 1
                continue
            b_errors.append(b_state)
        for b_state in b_errors:
            if _traps_match(kind_a, b_state.error.kind):
                self.stats.trap_agreements += 1
                return PathVerdict(index, "trap", "agree",
                                  f"both trap: {kind_a.value}")
        if b_errors:
            kinds = sorted({s.error.kind.value for s in b_errors})
            detail = (f"trap kind changed: reference {kind_a.value}, "
                      f"optimized {', '.join(kinds)}")
            return self._trap_divergence(index, "trap-kind", detail,
                                         a_witness)
        if kind_a.value in self.config.trap_whitelist:
            self.stats.whitelisted_trap_deletions += 1
            return PathVerdict(index, "trap", "whitelisted",
                              f"licensed deletion of {kind_a.value}")
        detail = (f"reference traps ({kind_a.value}) but optimized module "
                  f"completes")
        return self._trap_divergence(index, "trap-deleted", detail,
                                     a_witness)

    def _trap_divergence(self, index: int, kind: str, detail: str,
                         a_witness: Optional[bytes]) -> PathVerdict:
        """A trap disagreement is only reportable with a concrete input
        reaching the reference trap; without one the A path may itself be
        undecidable, so the verdict degrades to unknown."""
        if a_witness is None:
            self.stats.unknown_paths += 1
            self.truncated = True
            return PathVerdict(index, "trap", "unknown",
                              detail + " (no confirmable witness)")
        self.diverge(kind, f"path {index}: {detail}", a_witness)
        return PathVerdict(index, "trap", "diverged", detail, a_witness)


# ------------------------------------------------------------ entry points

def relcheck_modules(module_a: Module, module_b: Module,
                     config: Optional[RelcheckConfig] = None,
                     pair: Optional[Tuple[str, str]] = None,
                     shared_caches: Optional[SharedSolverCaches] = None,
                     store: Optional[object] = None,
                     entry: str = "main") -> RelcheckReport:
    """Prove ``module_a`` (reference) equivalent to ``module_b``
    (optimized) on every path up to the configured input bound.

    ``store`` is an optional
    :class:`~repro.service.store.SolverKnowledgeStore`: a whole-run memo
    keyed by both modules' printed IR and :meth:`RelcheckConfig.spec`
    answers an unchanged pair without executing anything; a miss solves
    into the store's table (primed once per load), which the store
    absorbs, and is recorded unless truncated or cut by a query deadline.
    Only a run without a store solves into ``shared_caches`` (default: a
    fresh table).  Saving the store is left to the caller that owns it.
    """
    config = config or RelcheckConfig()
    if pair is None:
        pair = (str(module_a.metadata.get("opt_level", "A")),
                str(module_b.metadata.get("opt_level", "B")))
    if store is not None:
        from ..service.store import relcheck_fingerprint
        fingerprint = relcheck_fingerprint(module_a, module_b, config.spec())
        memo = store.memo_lookup(
            fingerprint,
            lambda payload: _report_from_memo(payload, pair, config))
        if memo is not None:
            return memo
        store.prime()
    caches = store.caches if store is not None else (
        shared_caches or SharedSolverCaches())

    # Phase 1: exhaustively explore the reference module.
    a_finished: List[ExecutionState] = []
    executor = ParallelExecutor(
        module_a, entry=entry, searcher=config.searcher,
        solver=Solver(config=config.solver_config(), shared=caches),
        limits=config.limits(), state_sink=a_finished.append)
    report_a = executor.run(config.input_bytes)

    stats = RelcheckStats()
    solver_stats = SolverStats()
    solver_stats.merge(report_a.solver_stats)
    report = RelcheckReport(pair=pair, input_bytes=config.input_bytes,
                            stats=stats, solver_stats=solver_stats)
    if report_a.stats.engine_errors > 0:
        detail = "; ".join(report_a.diagnostics) or "engine error"
        report.divergences.append(RelcheckDivergence(
            "engine", f"reference exploration hit an engine error "
            f"({detail})", None))
        stats.divergences += 1
    if report_a.stats.termination_reason:
        report.truncated = True

    a_finished.sort(key=_state_sort_key)

    # Phase 2: replay B under each A path, sharing the solver caches.
    for index, state in enumerate(a_finished):
        checker = _PathChecker(module_b, entry, config, caches)
        report.verdicts.append(checker.check(index, state))
        stats.merge(checker.stats)
        solver_stats.merge(checker.solver.stats)
        report.divergences.extend(checker.divergences)
        report.truncated |= checker.truncated
    if solver_stats.store_hits:
        report.provenance = "warm-store"

    if store is not None:
        store.absorb(caches)
        if not report.truncated and not solver_stats.query_deadlines:
            store.memo_record(fingerprint, _report_to_memo(report))
    return report


def relcheck_source(source: str,
                    levels: Optional[Tuple[object, object]] = None,
                    config: Optional[RelcheckConfig] = None,
                    session: Optional[object] = None,
                    store: Optional[object] = None) -> RelcheckReport:
    """Compile ``source`` at two levels (sharing the front end) and
    relcheck the pair.  Default pair: the paper's (-O0, -OVERIFY)."""
    from ..pipelines import parse_opt_level
    from ..pipelines.levels import OptLevel
    from ..pipelines.session import CompilerSession

    if levels is None:
        levels = (OptLevel.O0, OptLevel.OVERIFY)
    levels = tuple(level if isinstance(level, OptLevel)
                   else parse_opt_level(str(level)) for level in levels)
    session = session or CompilerSession()
    results = session.compile_at_levels(source, levels=list(levels))
    return relcheck_modules(results[levels[0]].module,
                            results[levels[1]].module,
                            config=config,
                            pair=(str(levels[0]), str(levels[1])),
                            store=store)


def relcheck_workload(name: str,
                      levels: Optional[Tuple[object, object]] = None,
                      config: Optional[RelcheckConfig] = None,
                      store: Optional[object] = None) -> RelcheckReport:
    """Relcheck a registry workload's source at a level pair."""
    from ..workloads import get_workload
    return relcheck_source(get_workload(name).source, levels=levels,
                           config=config, store=store)


# ----------------------------------------------------------------- memos

def _report_to_memo(report: RelcheckReport) -> Dict[str, object]:
    """The memo payload: what :func:`_report_from_memo` reads back (the
    caller supplies the pair and input size)."""
    return {
        "stats": report.stats.as_dict(),
        "verdicts": [[v.index, v.kind, v.status, v.detail,
                      None if v.counterexample is None
                      else v.counterexample.hex()]
                     for v in report.verdicts],
        "divergences": [[d.kind, d.detail,
                         None if d.counterexample is None
                         else d.counterexample.hex()]
                        for d in report.divergences],
    }


def _report_from_memo(memo: Dict[str, object], pair: Tuple[str, str],
                      config: RelcheckConfig) -> RelcheckReport:
    stats = RelcheckStats(**{str(k): int(v)
                             for k, v in dict(memo["stats"]).items()})
    report = RelcheckReport(pair=pair, input_bytes=config.input_bytes,
                            stats=stats, provenance="memo-hit")
    for index, kind, status, detail, witness in memo.get("verdicts", []):
        report.verdicts.append(PathVerdict(
            int(index), str(kind), str(status), str(detail),
            None if witness is None else bytes.fromhex(witness)))
    for kind, detail, witness in memo.get("divergences", []):
        report.divergences.append(RelcheckDivergence(
            str(kind), str(detail),
            None if witness is None else bytes.fromhex(witness)))
    return report
