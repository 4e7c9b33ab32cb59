"""The constraint solver used by the symbolic executor.

KLEE delegates to STP; this reproduction ships its own solver tuned for the
constraint shapes symbolic execution of byte-oriented programs produces:
conjunctions of comparisons over a handful of 8-bit input variables.

The solver combines, in order of increasing cost:

1. expression-level simplification (done by the smart constructors),
2. an interval fast path that decides constraints whose truth value does not
   depend on the variables at all,
3. independent-constraint decomposition (KLEE's ``--use-independent-solver``):
   every query arrives as the variable-disjoint partition that
   :meth:`repro.symex.state.ExecutionState.add_constraint` maintains, so
   each group is solved separately; a query's extra constraints are solved
   together with the groups that share their variables,
4. a **UBTree (set-trie) counterexample index** over cached results: a
   cached UNSAT set that is a subset of the query proves it unsatisfiable, a
   cached SAT set that is a superset hands over its model, and models of
   cached subsets are cheap candidate assignments (KLEE's counterexample
   cache, indexed as in Hoffmann & Koehler's UBTrees),
5. a backtracking CSP search over the byte domains of the variables in a
   group, with unary-constraint domain pruning and early constraint
   checking, made exact on if-conversion shapes by two rewrites:
   **literal propagation** (a constraint nested in another becomes true
   there, its negation false, and a constraint next to its negation is
   UNSAT at once) and **value classes** (a variable seen only through
   1-bit tests of itself alone is searched over one value per class);
   groups containing **wide (>16-bit) variables** are instead solved by
   **branch-and-prune**: the variable box is recursively split at constants
   the constraints mention, sub-boxes are pruned through
   :func:`~repro.symex.expr.bounded_interval`, and only leaf boxes small
   enough to enumerate are searched concretely — a sound and (budget
   permitting) exact decision procedure,
6. query caching (both full queries and per-group results, models included,
   so :meth:`Solver.model_for_partition` never re-solves a decided query).

Branch feasibility uses :meth:`Solver.check_branch_partition`, which shares
work between the two sides of a fork: when one side is proved
unsatisfiable, the other side follows from the satisfiability of the base
path condition and needs no new query.

Two layers sit behind :class:`SolverConfig` switches (default on):
``cache`` and ``rewrite_equalities``.  They stay switchable because the
differential tests and the fuzz oracle compare the default solver against
a naive reference configuration that turns them off;
``make_backend("symex<rewrite-equalities=off>")`` reaches the rewriter
from the pipeline syntax.

The solver is complete for the expression language as long as the search
budget is not exhausted; when it is, the query conservatively reports
"maybe satisfiable" so that the executor never prunes a feasible path.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import asdict, dataclass, fields
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..faults import SolverError, site as _fault_site
from .expr import Expr, ExprOp, bounded_interval, mask, unsigned_interval
from .simplify import const, not_expr, substitute
from .ubtree import UBTree

#: Fault site covering every top-level solver query (``docs/robustness.md``).
_SOLVER_CHECK = _fault_site("solver.check", SolverError)

#: What literal propagation substitutes for a literal and its negation.
_TRUE = const(1, 1)
_FALSE = const(1, 0)

#: How many cached subset models the UBTree lookup tries as candidate
#: assignments before giving up and searching.
SUBSET_MODEL_TRIALS = 8

#: A branch-and-prune box is enumerated concretely once it contains at most
#: this many points.
BNP_LEAF_ENUMERATION = 2048

#: Interval-split budget per branch-and-prune search; exceeding it yields
#: the conservative "maybe satisfiable" answer.
BNP_MAX_SPLITS = 20_000


@dataclass(frozen=True)
class SolverConfig:
    """The solver's budget and switches (all layers default on).

    ``cache`` is the master switch for every caching layer (the query and
    group caches and the UBTree counterexample index).
    ``rewrite_equalities`` is consumed by
    :meth:`repro.symex.state.ExecutionState.add_constraint` (the executor
    copies it onto the states it creates).
    """

    max_assignments: int = 200_000
    cache: bool = True
    rewrite_equalities: bool = True
    #: Per-query wall-clock deadline in seconds (0 = none).  An expiring
    #: query is interrupted at its next budget checkpoint (the
    #: branch-and-prune split loop / the CSP assignment loop) and answers
    #: the same conservative "maybe satisfiable" an exhausted assignment
    #: budget does, counted in :attr:`SolverStats.query_deadlines`.
    query_deadline_seconds: float = 0.0


@dataclass
class SolverStats:
    """Counters describing solver work (reported by the harness)."""

    queries: int = 0
    cache_hits: int = 0
    fast_path_decisions: int = 0
    csp_searches: int = 0
    assignments_tried: int = 0
    unknown_results: int = 0
    time_seconds: float = 0.0
    #: Independent-group sub-queries issued (cache hits included).
    group_queries: int = 0
    #: Group queries answered by re-using a model from a previous SAT answer.
    model_cache_hits: int = 0
    #: Two-sided branch feasibility checks
    #: (:meth:`Solver.check_branch_partition`).
    branch_checks: int = 0
    #: Branch sides answered for free from the other side's UNSAT proof.
    branch_sides_free: int = 0
    #: Group queries answered by the UBTree counterexample index (UNSAT
    #: subset, SAT superset, or a subset model that extended).
    ubtree_hits: int = 0
    #: UBTree lookups that fell through to a search.
    ubtree_misses: int = 0
    #: Constraints rewritten against an equality at ``add_constraint`` time
    #: (counted by the execution states sharing this stats object).
    equality_rewrites: int = 0
    #: Interval splits performed by branch-and-prune searches.
    prune_splits: int = 0
    #: Always 0: the solver does not minimize UNSAT cores, so a group
    #: enters the UNSAT index exactly as solved.  Kept because perfbench
    #: reads the field by name (``perfbench/local.py``).
    cores_minimized: int = 0
    #: Group-cache and concretization-model hits answered by entries that
    #: were primed from a persistent knowledge store
    #: (:class:`repro.service.store.SolverKnowledgeStore`) rather than
    #: solved in this run.  UBTree containment hits on primed sets are
    #: counted as ordinary ``ubtree_hits``.
    store_hits: int = 0
    #: Queries interrupted by :attr:`SolverConfig.query_deadline_seconds`
    #: (each also counts as an ``unknown_results`` entry).
    query_deadlines: int = 0

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)

    def merge(self, other: "SolverStats") -> None:
        """Accumulate ``other`` into this object (summing every counter).

        Relcheck sums its reference exploration's and its per-path
        replays' solver stats this way."""
        for field_info in fields(self):
            name = field_info.name
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class SolverResult:
    """Outcome of a satisfiability query."""

    satisfiable: bool
    model: Optional[Dict[str, int]] = None
    #: True when the search budget was exhausted and the result is the
    #: conservative answer rather than a proof.
    exact: bool = True


class _NullLock:
    """A no-op context manager: the lock of a single-owner cache stripe.

    A private (non-shared) solver routes through the same stripe code as a
    shared one; swapping the lock out for this keeps the sequential hot
    path free of real lock traffic."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


class _CacheStripe:
    """One shard of the solver's group-level caches.

    Everything a group query touches lives together on its stripe — the
    exact group-result cache and the SAT/UNSAT UBTree counterexample
    indices — so one lock acquisition covers a whole lookup or
    insertion."""

    __slots__ = ("lock", "group_cache", "sat_index", "unsat_index",
                 "canonical_models", "from_store", "canonical_from_store")

    def __init__(self, lock: object) -> None:
        self.lock = lock
        self.group_cache: Dict[FrozenSet[Expr], SolverResult] = {}
        self.sat_index = UBTree()
        self.unsat_index = UBTree()
        #: Group -> the model a *fresh deterministic search* finds — a pure
        #: function of the group, unlike the SAT index's models, whose
        #: identity depends on what happened to be cached first.
        #: Backs :meth:`Solver.concretization_model`.
        self.canonical_models: Dict[FrozenSet[Expr], Dict[str, int]] = {}
        #: Group-cache keys primed from a persistent store (provenance
        #: accounting only: a hit on one bumps ``SolverStats.store_hits``).
        self.from_store: set = set()
        #: Same, for primed canonical-model keys.
        self.canonical_from_store: set = set()


class SharedSolverCaches:
    """The solver's group caches, sharded into lock stripes.

    Several :class:`Solver` front ends can solve into one set: the
    verification service hands its set to every job it runs on its job
    threads, and relcheck shares one between its reference exploration and
    its per-path replays.  A constraint group is routed to the stripe
    selected by its fingerprint (the hash of its interned constraint set),
    so the same group always lands on the same stripe and a result solved
    by one solver answers every other solver's queries about it.  Lock
    striping bounds contention: two job threads only serialize when their
    groups collide on a stripe, and the expensive searches themselves run
    outside the stripe lock (two threads racing to solve the same group
    merely duplicate that one search; both arrive at the same
    deterministic result).  ``locked=False`` gives the stripes no-op
    locks, for a set that only one thread ever uses.
    """

    def __init__(self, num_stripes: int = 1, locked: bool = True) -> None:
        if num_stripes < 1:
            raise ValueError("num_stripes must be >= 1")
        make_lock = threading.Lock if locked else _NullLock
        self.stripes: List[_CacheStripe] = [
            _CacheStripe(make_lock()) for _ in range(num_stripes)]
        self._num_stripes = num_stripes

    def stripe_for(self, group_key: FrozenSet[Expr]) -> _CacheStripe:
        """The stripe owning ``group_key`` (stable within a process:
        interning makes the constraint set's hash reproducible for the
        lifetime of its expressions)."""
        if self._num_stripes == 1:
            return self.stripes[0]
        return self.stripes[hash(group_key) % self._num_stripes]

    # ------------------------------------------------- persistence support
    # The knowledge store (repro.service.store) speaks in terms of these
    # two methods: export_state() snapshots everything worth persisting at
    # the Expr level, absorb_state() injects a (possibly deserialized)
    # snapshot back.  Keeping the stripe layout private here means the
    # store never touches locks or routing.

    def export_state(self) -> Dict[str, list]:
        """Snapshot the persistable cache contents across all stripes.

        Returns Expr-level entries: exact group results, SAT index sets
        with their models, UNSAT index sets, and canonical concretization
        models.  Inexact (budget-exhausted) group results are excluded —
        they are conservative answers, not knowledge worth re-using."""
        state: Dict[str, list] = {"groups": [], "sat_sets": [],
                                  "unsat_sets": [], "canonical_models": []}
        for stripe in self.stripes:
            with stripe.lock:
                for key, result in stripe.group_cache.items():
                    if result.exact:
                        model = None if result.model is None \
                            else dict(result.model)
                        state["groups"].append(
                            (key, SolverResult(result.satisfiable, model)))
                for elements, model in stripe.sat_index.items():
                    state["sat_sets"].append((elements, dict(model)))
                for elements, _payload in stripe.unsat_index.items():
                    state["unsat_sets"].append(elements)
                for key, model in stripe.canonical_models.items():
                    state["canonical_models"].append((key, dict(model)))
        return state

    def absorb_state(self, state: Dict[str, list],
                     from_store: bool = False) -> int:
        """Inject a snapshot produced by :meth:`export_state` (possibly in
        another process, deserialized from disk).  Existing entries win:
        absorption never overwrites what this run already solved.  With
        ``from_store`` the injected keys are tagged so later hits count as
        ``SolverStats.store_hits``.  Returns the number of entries added."""
        absorbed = 0
        for key, result in state.get("groups", ()):
            key = frozenset(key)
            stripe = self.stripe_for(key)
            with stripe.lock:
                if key not in stripe.group_cache:
                    stripe.group_cache[key] = result
                    if from_store:
                        stripe.from_store.add(key)
                    absorbed += 1
        for elements, model in state.get("sat_sets", ()):
            elements = tuple(elements)
            stripe = self.stripe_for(frozenset(elements))
            with stripe.lock:
                if not stripe.sat_index.contains(elements):
                    stripe.sat_index.insert(elements, dict(model))
                    absorbed += 1
        for elements in state.get("unsat_sets", ()):
            elements = tuple(elements)
            stripe = self.stripe_for(frozenset(elements))
            with stripe.lock:
                if not stripe.unsat_index.contains(elements):
                    stripe.unsat_index.insert(elements, True)
                    absorbed += 1
        for key, model in state.get("canonical_models", ()):
            key = frozenset(key)
            stripe = self.stripe_for(key)
            with stripe.lock:
                if key not in stripe.canonical_models:
                    stripe.canonical_models[key] = dict(model)
                    if from_store:
                        stripe.canonical_from_store.add(key)
                    absorbed += 1
        return absorbed


class Solver:
    """A small, self-contained constraint solver for bitvector conjunctions."""

    def __init__(self, config: Optional[SolverConfig] = None,
                 shared: Optional[SharedSolverCaches] = None) -> None:
        self.config = config or SolverConfig()
        self.stats = SolverStats()
        #: Full-query result cache.  Private to this solver even under a
        #: shared cache set: full queries are path-shaped and rarely collide
        #: across runs, so sharing them would buy little and cost a lock.
        self._cache: Dict[FrozenSet[Expr], SolverResult] = {}
        #: The group-level caches (exact results, UBTree counterexample
        #: indices), possibly shared with other solvers via lock stripes.
        #: A private solver gets a single stripe with a no-op lock, so the
        #: sequential path pays no lock traffic.
        self._shared = shared or SharedSolverCaches(1, locked=False)
        #: Unary constraint -> frozenset of satisfying variable values.
        #: Hash-consing makes the constraint expression itself the key.
        #: Worker-local: it is a memo (cheap to recompute), and keeping it
        #: off the stripes removes it from every lock footprint.
        self._unary_sat: Dict[Tuple[Expr, int], FrozenSet[int]] = {}
        #: Wall-clock instant the running query must stop at (0.0 = no
        #: deadline).  Set on entry to each top-level query when
        #: :attr:`SolverConfig.query_deadline_seconds` is enabled.
        self._deadline = 0.0

    def _begin_query(self, start: float) -> None:
        """Arm the per-query deadline (a no-op when the feature is off)."""
        if self.config.query_deadline_seconds > 0.0:
            self._deadline = start + self.config.query_deadline_seconds

    # ------------------------------------------------------------------ API
    # Every query arrives as the variable-disjoint partition the execution
    # state already maintains (``ExecutionState.relevant_partition`` /
    # ``full_partition``), so the solver never re-derives it.  The only
    # coupling a query's extra constraints can introduce is between
    # themselves and the groups sharing their variables, which one pass of
    # set intersections finds.

    def check_partition(self, varfree: Sequence[Expr],
                        groups: Sequence[Sequence[Expr]],
                        extras: Sequence[Expr] = ()) -> SolverResult:
        """Satisfiability of ``varfree + groups + extras``, where ``groups``
        are known variable-disjoint (a state's constraint partition)."""
        start = time.perf_counter()
        self.stats.queries += 1
        self._begin_query(start)
        if _SOLVER_CHECK.armed:
            _SOLVER_CHECK.fire()
        try:
            return self._check_partition(varfree, groups, extras)
        finally:
            self.stats.time_seconds += time.perf_counter() - start

    def _filter_constraints(self, constraints: Sequence[Expr]
                            ) -> Optional[List[Expr]]:
        """Drop constraints decided by constant folding or the interval
        fast path; ``None`` means one of them is provably false."""
        remaining: List[Expr] = []
        for constraint in constraints:
            if constraint.is_constant:
                if constraint.value == 0:
                    self.stats.fast_path_decisions += 1
                    return None
                continue
            low, high = unsigned_interval(constraint)
            if high == 0:
                self.stats.fast_path_decisions += 1
                return None
            if low >= 1:
                self.stats.fast_path_decisions += 1
                continue
            remaining.append(constraint)
        return remaining

    def _check_partition(self, varfree: Sequence[Expr],
                         groups: Sequence[Sequence[Expr]],
                         extras: Sequence[Expr]) -> SolverResult:
        group_list = list(groups)
        for constraint in varfree:
            if constraint.is_constant:
                if constraint.value == 0:
                    self.stats.fast_path_decisions += 1
                    return SolverResult(False)
            else:  # pragma: no cover - constructors fold variable-free exprs
                group_list.append((constraint,))
        extra_remaining = self._filter_constraints(extras)
        if extra_remaining is None:
            return SolverResult(False)
        filtered_groups: List[List[Expr]] = []
        remaining_all: List[Expr] = list(extra_remaining)
        for group in group_list:
            filtered = self._filter_constraints(group)
            if filtered is None:
                return SolverResult(False)
            if filtered:
                filtered_groups.append(filtered)
                remaining_all.extend(filtered)
        if not remaining_all:
            return SolverResult(True, model={})
        key = frozenset(remaining_all)
        if self.config.cache:
            cached = self._cache.get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                return cached
        solve_groups: List[List[Expr]]
        if extra_remaining:
            extra_vars: set = set()
            for constraint in extra_remaining:
                extra_vars |= constraint.variables()
            bridged: List[Expr] = list(extra_remaining)
            solve_groups = []
            for group in filtered_groups:
                if any(constraint.variables() & extra_vars
                       for constraint in group):
                    bridged.extend(group)
                else:
                    solve_groups.append(group)
            solve_groups.append(bridged)
        else:
            solve_groups = filtered_groups
        combined_model: Dict[str, int] = {}
        exact = True
        for group in solve_groups:
            result = self._solve_group(group)
            if not result.satisfiable:
                final = SolverResult(False, exact=result.exact)
                if self.config.cache and result.exact:
                    self._cache[key] = final
                return final
            exact &= result.exact
            if result.model:
                combined_model.update(result.model)
        final = SolverResult(True, model=combined_model, exact=exact)
        if self.config.cache and exact:
            self._cache[key] = final
        return final

    def may_be_true_partition(self, varfree: Sequence[Expr],
                              groups: Sequence[Sequence[Expr]],
                              condition: Expr) -> bool:
        """Can ``condition`` be true under ``varfree + groups``?"""
        if condition.is_constant:
            return bool(condition.value)
        return self.check_partition(varfree, groups, (condition,)).satisfiable

    def check_branch_partition(self, varfree: Sequence[Expr],
                               groups: Sequence[Sequence[Expr]],
                               condition: Expr) -> Tuple[bool, bool]:
        """Feasibility of both sides of a branch: ``(can_true, can_false)``.

        Shares work between the two sides: if the base plus ``condition``
        is proved unsatisfiable, every model of the base makes
        ``condition`` false, so the false side is exactly the
        satisfiability of the base, which the executor's state invariant
        (a state's path condition is satisfiable) already guarantees: that
        side costs no query at all."""
        if condition.is_constant:
            truth = bool(condition.value)
            return truth, not truth
        self.stats.branch_checks += 1
        true_result = self.check_partition(varfree, groups, (condition,))
        if not true_result.satisfiable and true_result.exact:
            self.stats.branch_sides_free += 1
            return False, True
        false_result = self.check_partition(varfree, groups,
                                            (not_expr(condition),))
        return true_result.satisfiable, false_result.satisfiable

    def concretization_model(self, varfree: Sequence[Expr],
                             groups: Sequence[Sequence[Expr]]
                             ) -> Optional[Dict[str, int]]:
        """A satisfying assignment whose *identity* depends only on the
        query — never on cache contents or the order queries ran in.

        Satisfiability answers are deterministic everywhere (caches only
        return answers a fresh search would also reach), but the reuse
        layers may hand back *different models* for the same query
        depending on what another query cached first.  That is fine for
        witnesses, but the executor feeds one model back into control
        flow — address concretization pins ``address == model value`` —
        so it must come from this entry point: each group is solved by a
        fresh deterministic search, memoized per group on its stripe
        (the memoized value is a pure function of the group, so a race
        merely duplicates the search)."""
        start = time.perf_counter()
        self.stats.queries += 1
        self._begin_query(start)
        if _SOLVER_CHECK.armed:
            _SOLVER_CHECK.fire()
        try:
            for constraint in varfree:
                if constraint.is_constant and constraint.value == 0:
                    return None
            completed: Dict[str, int] = {}
            for group in groups:
                filtered = self._filter_constraints(group)
                if filtered is None:
                    return None
                if not filtered:
                    continue
                key = frozenset(filtered)
                stripe = self._shared.stripe_for(key)
                with stripe.lock:
                    model = stripe.canonical_models.get(key)
                    if model is not None and \
                            key in stripe.canonical_from_store:
                        self.stats.store_hits += 1
                if model is None:
                    result = self._solve_group_uncached(filtered)
                    if not result.satisfiable or not result.exact or \
                            result.model is None:
                        return None
                    model = dict(result.model)
                    if self.config.cache:
                        with stripe.lock:
                            stripe.canonical_models[key] = model
                completed.update(model)
            for group in groups:
                for constraint in group:
                    for name in constraint.variables():
                        if name not in completed:
                            completed[name] = 0
            return completed
        finally:
            self.stats.time_seconds += time.perf_counter() - start

    def model_for_partition(self, varfree: Sequence[Expr],
                            groups: Sequence[Sequence[Expr]]
                            ) -> Optional[Dict[str, int]]:
        """A satisfying assignment covering every variable of the
        partition, or None.  Per-group results come straight from the group
        caches, so a fully explored state's model costs one dict union.
        The model's identity may depend on cache state; when the model
        feeds back into control flow, use :meth:`concretization_model`
        instead."""
        result = self.check_partition(varfree, groups)
        if not result.satisfiable or not result.exact or result.model is None:
            # "Maybe satisfiable" (budget-exhausted) answers carry no
            # trustworthy witness: groups that did decide may have
            # contributed a partial model, but completing it would
            # fabricate values for the undecided group's variables.
            return None
        # Constraints dropped by the interval fast path hold under *any*
        # assignment, so completing with zeros keeps the model satisfying
        # while covering every variable of the partition.
        completed = dict(result.model)
        for group in groups:
            for constraint in group:
                for name in constraint.variables():
                    if name not in completed:
                        completed[name] = 0
        return completed

    # ------------------------------------------------------- group solving
    def _solve_group(self, constraints: List[Expr]) -> SolverResult:
        self.stats.group_queries += 1
        group_key = frozenset(constraints)
        stripe = self._shared.stripe_for(group_key)
        if self.config.cache:
            with stripe.lock:
                cached = stripe.group_cache.get(group_key)
                if cached is not None:
                    self.stats.cache_hits += 1
                    if group_key in stripe.from_store:
                        self.stats.store_hits += 1
                    return cached
                # Under the lock: only the trie walks (they read the shared
                # structure).  Candidate-model *evaluations* happen
                # outside, below.
                unsat, superset_model, candidates = \
                    self._ubtree_snapshot(stripe, constraints)
            result = self._resolve_model_candidates(
                constraints, unsat, superset_model, candidates)
            if result is not None:
                with stripe.lock:
                    stripe.group_cache[group_key] = result
                return result
        # The search itself runs outside the stripe lock: it can be orders
        # of magnitude more expensive than a lookup, and duplicating it in
        # the (rare) event of two threads racing on one group is cheaper
        # than serializing every colliding query behind it.
        result = self._solve_group_uncached(constraints)
        if self.config.cache and result.exact:
            with stripe.lock:
                stripe.group_cache[group_key] = result
                if not result.satisfiable:
                    stripe.unsat_index.insert(constraints, True)
                elif result.model:
                    stripe.sat_index.insert(constraints, dict(result.model))
        return result

    # ---------------------------------------------------------- model reuse
    @staticmethod
    def _ubtree_snapshot(stripe: _CacheStripe, constraints: List[Expr]
                         ) -> Tuple[bool, Optional[Dict[str, int]],
                                    List[Dict[str, int]]]:
        """The trie walks of a counterexample-cache lookup (caller holds
        the stripe lock): whether a cached UNSAT subset proves the query
        UNSAT, a cached SAT superset's model if any, and up to
        ``SUBSET_MODEL_TRIALS`` cached subset models to try as candidates.
        Candidate *evaluation* is the expensive part and happens outside
        the lock (:meth:`_resolve_model_candidates`)."""
        if stripe.unsat_index.find_subset(constraints) is not None:
            return True, None, []
        superset_model = stripe.sat_index.find_superset(constraints)
        if superset_model is not None:
            return False, superset_model, []
        candidates = []
        for trial, model in enumerate(
                stripe.sat_index.iter_subsets(constraints)):
            if trial >= SUBSET_MODEL_TRIALS:
                break
            candidates.append(model)
        return False, None, candidates

    def _resolve_model_candidates(self, constraints: List[Expr],
                                  unsat: bool,
                                  superset_model: Optional[Dict[str, int]],
                                  candidates: List[Dict[str, int]]
                                  ) -> Optional[SolverResult]:
        """Turn a lookup snapshot into a result, or None on a miss —
        candidate evaluation runs outside any stripe lock.

        Three containment rules, in order of strength: a cached UNSAT set
        contained in the query proves UNSAT; a cached SAT superset's model
        satisfies every queried constraint outright; a cached subset's
        model satisfies part of the query by construction and is tried as
        a candidate for the rest (unmentioned variables default to zero).
        """
        if unsat:
            self.stats.ubtree_hits += 1
            return SolverResult(False)
        variables: set = set()
        for constraint in constraints:
            variables |= constraint.variables()
        if superset_model is not None:
            self.stats.ubtree_hits += 1
            self.stats.model_cache_hits += 1
            candidate = {name: superset_model.get(name, 0)
                         for name in variables}
            return SolverResult(True, model=candidate)
        for model in candidates:
            candidate = {name: model.get(name, 0) for name in variables}
            if all(c.evaluate(candidate) == 1 for c in constraints):
                self.stats.ubtree_hits += 1
                self.stats.model_cache_hits += 1
                return SolverResult(True, model=candidate)
        # The all-zeros assignment is the cache's implicit first entry: it
        # is what every cached model defaults unmentioned variables to, so
        # trying it catches groups whose variables no cached model
        # mentions.  It is not a set-trie lookup, so it counts as a
        # model-cache hit only — ``ubtree_hits`` measures genuine
        # containment hits.
        zeros = dict.fromkeys(variables, 0)
        if all(c.evaluate(zeros) == 1 for c in constraints):
            self.stats.model_cache_hits += 1
            return SolverResult(True, model=zeros)
        self.stats.ubtree_misses += 1
        return None

    # ----------------------------------------------------------- CSP search
    def _solve_group_uncached(self, constraints: List[Expr]) -> SolverResult:
        self.stats.csp_searches += 1
        variables = sorted(set(itertools.chain.from_iterable(
            c.variables() for c in constraints)))
        if not variables:
            # Variable-free constraints fold to constants during
            # simplification; anything left is treated as satisfiable.
            return SolverResult(True, model={})

        widths: Dict[str, int] = {}
        for constraint in constraints:
            self._collect_widths(constraint, widths)

        if any(widths.get(name, 8) > 16 for name in variables):
            # Wide variables cannot be enumerated.
            return self._branch_and_prune(constraints, variables, widths)

        # Unary-constraint domain pruning.
        domains: Dict[str, List[int]] = {
            name: list(range(mask(widths.get(name, 8)) + 1))
            for name in variables}
        multi: List[Expr] = []
        for constraint in constraints:
            if len(constraint.variables()) > 1:
                multi.append(constraint)
            elif not self._prune_domain(domains, constraint, widths):
                return SolverResult(False)

        # Order variables: smallest domain first (most constrained first).
        # The order is keyed by the group's own unary domains, before the
        # two rewrites below shrink them.  The rewritten group has the same
        # models, and each value of the lexicographically first one is the
        # smallest of its class, so the search in this order still returns
        # that model.
        order = sorted(variables, key=lambda name: len(domains[name]))
        if multi:
            rewritten = self._propagate_literals(constraints, multi)
            if rewritten is None:
                return SolverResult(False)
            multi = []
            for constraint in rewritten:
                if len(constraint.variables()) > 1:
                    multi.append(constraint)
                elif not self._prune_domain(domains, constraint, widths):
                    return SolverResult(False)
            self._reduce_to_value_classes(domains, multi, widths)
        constraint_vars = [(c, c.variables()) for c in multi]

        assignment: Dict[str, int] = {}
        budget = [self.config.max_assignments]
        deadline = self._deadline
        deadline_hit = [False]
        if deadline and time.perf_counter() > deadline:
            # Already past deadline before searching (queueing delays, a
            # slow group earlier in the same query): answer conservatively
            # now instead of starting a search we must abandon.
            self.stats.unknown_results += 1
            self.stats.query_deadlines += 1
            return SolverResult(True, model=None, exact=False)

        def backtrack(index: int) -> Optional[Dict[str, int]]:
            if index == len(order):
                return dict(assignment)
            name = order[index]
            assigned_after = set(order[:index + 1])
            relevant = [c for c, names in constraint_vars
                        if name in names and names <= assigned_after]
            for value in domains[name]:
                if budget[0] <= 0:
                    return None
                budget[0] -= 1
                if deadline and (budget[0] & 0xFF) == 0 and \
                        time.perf_counter() > deadline:
                    # Deadline expiry reuses the budget-exhaustion exit:
                    # same conservative "maybe satisfiable" downstream.
                    deadline_hit[0] = True
                    budget[0] = 0
                    return None
                self.stats.assignments_tried += 1
                assignment[name] = value
                if all(c.evaluate(assignment) == 1 for c in relevant):
                    result = backtrack(index + 1)
                    if result is not None:
                        return result
                del assignment[name]
            return None

        model = backtrack(0)
        if model is not None:
            return SolverResult(True, model=model)
        if budget[0] <= 0:
            # Budget exhausted: be conservative (never prune a feasible
            # path).
            self.stats.unknown_results += 1
            if deadline_hit[0]:
                self.stats.query_deadlines += 1
            return SolverResult(True, model=None, exact=False)
        return SolverResult(False)

    def _prune_domain(self, domains: Dict[str, List[int]], constraint: Expr,
                      widths: Dict[str, int]) -> bool:
        """Keep only the values of a unary ``constraint``'s variable that
        satisfy it; False when none is left."""
        (name,) = constraint.variables()
        allowed = self._unary_satisfying_values(constraint, name,
                                                widths.get(name, 8))
        domains[name] = [value for value in domains[name] if value in allowed]
        return bool(domains[name])

    @staticmethod
    def _propagate_literals(constraints: List[Expr], multi: List[Expr]
                            ) -> Optional[List[Expr]]:
        """Rewrite each multi-variable constraint under the group's other
        literals; None when the group is unsatisfiable.

        A constraint that occurs inside another is replaced there by true,
        and its negation by false.  A constraint whose negation is also in
        the group makes it UNSAT at once.  A literal is only substituted
        into constraints larger than its own constraint, so a constraint
        never rewrites itself (``x -> false`` inside ``not x`` would drop
        the fact) and no two constraints lean on each other: every model
        of the original group satisfies the rewritten one, and by
        induction over constraint size the converse holds too."""
        literals: Dict[Expr, Tuple[Expr, int]] = {
            constraint: (_TRUE, constraint.size())
            for constraint in constraints}
        for constraint in constraints:
            negation = not_expr(constraint)
            entry = literals.get(negation)
            if entry is not None and entry[0] is _TRUE:
                return None
            if entry is None:
                literals[negation] = (_FALSE, constraint.size())
        rewritten: List[Expr] = []
        for constraint in multi:
            size = constraint.size()
            mapping = {}
            for term in constraint.boolean_subterms():
                entry = literals.get(term)
                if entry is not None and entry[1] < size:
                    mapping[term] = entry[0]
            if mapping:
                constraint = substitute(constraint, mapping)
                if constraint.is_constant:
                    if constraint.value == 0:
                        return None
                    continue
            rewritten.append(constraint)
        return rewritten

    def _reduce_to_value_classes(self, domains: Dict[str, List[int]],
                                 multi: List[Expr],
                                 widths: Dict[str, int]) -> None:
        """Shrink the domain of every class-reducible variable to the
        smallest value of each of its classes.

        A variable is class-reducible when each of its occurrences in the
        multi-variable constraints lies inside a 1-bit subterm over that
        variable alone (``in_3 == 47``, ``zext in_1 <s 58``): values that
        agree on all of those subterms are interchangeable in every
        constraint, so a model over the representatives is a model and no
        value works where no representative does.  The smallest value
        keeps the model the full enumeration would return."""
        atoms: Dict[str, set] = {}
        bare: set = set()
        seen: set = set()
        stack: List[Expr] = list(multi)
        while stack:
            node = stack.pop()
            if node in seen or node.is_constant:
                continue
            seen.add(node)
            if node.op is ExprOp.VAR:
                bare.add(node.name)
                continue
            names = node.variables()
            if node.width == 1 and len(names) == 1:
                atoms.setdefault(next(iter(names)), set()).add(node)
                continue
            stack.extend(node.operands)
        for name, domain in domains.items():
            if name in bare:
                continue
            if name not in atoms:
                domains[name] = domain[:1]
                continue
            width = widths.get(name, 8)
            allowed = [self._unary_satisfying_values(atom, name, width)
                       for atom in atoms[name]]
            classes: set = set()
            representatives: List[int] = []
            for value in domain:
                signature = tuple(value in values for values in allowed)
                if signature not in classes:
                    classes.add(signature)
                    representatives.append(value)
            domains[name] = representatives

    # ------------------------------------------------------ branch-and-prune
    def _branch_and_prune(self, constraints: List[Expr],
                          variables: List[str],
                          widths: Dict[str, int]) -> SolverResult:
        """Interval branch-and-prune for groups with wide (>16-bit)
        variables.

        The search maintains a box of per-variable intervals.  At each box
        every constraint is evaluated in interval arithmetic
        (:func:`bounded_interval`): a constraint whose interval is exactly 0
        prunes the box, a box where every constraint's interval is exactly 1
        yields a model immediately, and boxes small enough are enumerated
        concretely.  Otherwise the widest interval is split and both halves
        are searched.  Interval arithmetic is conservative, so pruning
        never loses a solution: an UNSAT answer is exact unless the
        split/assignment budget ran out, in which case the result is the
        conservative "maybe satisfiable".

        The split point bisects toward a constant mentioned in the
        constraints instead of the interval midpoint.  The satisfying band of an equality or
        ordering constraint starts or ends at such a constant, so splitting
        at ``c``/``c - 1`` makes one half decidable by the interval
        transfer almost immediately — an equality-heavy query resolves in
        O(#constants) splits where midpoint bisection needs O(log range)
        per constant.  Midpoints remain the fallback when no constant lies
        strictly inside the interval.
        """
        box = {name: (0, mask(widths.get(name, 8))) for name in variables}
        budget = [self.config.max_assignments]
        splits = [BNP_MAX_SPLITS]
        exhausted = [False]
        deadline = self._deadline
        deadline_hit = [False]
        # c ends the satisfying band of "x <= c"/"x == c"; c - 1 ends the
        # band of "x < c" and isolates c itself on the next split.  The
        # signed boundary of each variable width joins the seeds: it is the
        # one point the unsigned interval transfer cannot reason across, so
        # splitting exactly there turns a sign-crossing box into two
        # sign-pure (decidable) halves — and a seed split elsewhere must
        # not knock later bisection off that alignment.
        points = {point for seed in self._constant_seeds(constraints)
                  for point in (seed - 1, seed)}
        points.update((1 << (widths.get(name, 8) - 1)) - 1
                      for name in variables)
        split_seeds = sorted(points)

        def split_point(low: int, high: int) -> int:
            mid = (low + high) // 2
            best = mid
            best_distance = None
            for point in split_seeds:
                if low <= point < high:
                    distance = abs(point - mid)
                    if best_distance is None or distance < best_distance:
                        best, best_distance = point, distance
                elif point >= high:
                    break
            return best

        def enumerate_box(current: Dict[str, Tuple[int, int]],
                          undecided: List[Expr]
                          ) -> Optional[Dict[str, int]]:
            names = list(current)
            ranges = [range(low, high + 1) for low, high in current.values()]
            for point in itertools.product(*ranges):
                if budget[0] <= 0:
                    exhausted[0] = True
                    return None
                budget[0] -= 1
                self.stats.assignments_tried += 1
                assignment = dict(zip(names, point))
                if all(c.evaluate(assignment) == 1 for c in undecided):
                    return assignment
            return None

        def search(current: Dict[str, Tuple[int, int]]
                   ) -> Optional[Dict[str, int]]:
            if deadline and time.perf_counter() > deadline:
                # One clock read per box, only when a deadline is armed:
                # the split loop is the interruption point the per-query
                # deadline rides on.
                exhausted[0] = True
                deadline_hit[0] = True
                return None
            undecided: List[Expr] = []
            for constraint in constraints:
                low, high = bounded_interval(constraint, current)
                if high == 0:
                    return None  # no point of this box can satisfy it
                if low == 0:
                    undecided.append(constraint)
            if not undecided:
                # Every constraint holds on the whole box: any corner works.
                return {name: low for name, (low, _) in current.items()}
            points = 1
            for low, high in current.values():
                points *= high - low + 1
                if points > BNP_LEAF_ENUMERATION:
                    break
            if points <= BNP_LEAF_ENUMERATION:
                return enumerate_box(current, undecided)
            if splits[0] <= 0 or budget[0] <= 0:
                exhausted[0] = True
                return None
            splits[0] -= 1
            self.stats.prune_splits += 1
            name = max(current, key=lambda n: current[n][1] - current[n][0])
            low, high = current[name]
            mid = split_point(low, high)
            for half in ((low, mid), (mid + 1, high)):
                result = search({**current, name: half})
                if result is not None:
                    return result
            return None

        model = search(box)
        if model is not None:
            return SolverResult(True, model=model)
        if exhausted[0]:
            self.stats.unknown_results += 1
            if deadline_hit[0]:
                self.stats.query_deadlines += 1
            return SolverResult(True, model=None, exact=False)
        return SolverResult(False)

    @staticmethod
    def _constant_seeds(constraints: List[Expr]) -> FrozenSet[int]:
        """Every constant value appearing in the constraint expressions
        (the branch-and-prune split seeds)."""
        seeds: set = set()
        stack: List[Expr] = list(constraints)
        while stack:
            node = stack.pop()
            if node.op is ExprOp.CONST:
                seeds.add(node.value)
            stack.extend(node.operands)
        return frozenset(seeds)

    def _unary_satisfying_values(self, constraint: Expr, name: str,
                                 width: int) -> FrozenSet[int]:
        """The set of values of ``name`` satisfying a single-variable
        constraint, built once per unique (interned) constraint and cached
        for every later query that mentions it.

        Construction is a one-dimensional branch-and-prune rather than a
        full-domain sweep: a subrange the interval transfer decides is
        accepted or rejected wholesale without evaluating a single point,
        and only undecidable leaves are enumerated concretely."""
        key = (constraint, width)
        cached = self._unary_sat.get(key)
        if cached is not None:
            return cached
        values: List[int] = []
        evaluate = constraint.evaluate
        tried = 0

        def collect(low_value: int, high_value: int) -> None:
            nonlocal tried
            low, high = bounded_interval(constraint,
                                         {name: (low_value, high_value)})
            if high == 0:
                return
            if low >= 1:
                values.extend(range(low_value, high_value + 1))
                return
            if high_value - low_value < 16:
                for value in range(low_value, high_value + 1):
                    tried += 1
                    if evaluate({name: value}) == 1:
                        values.append(value)
                return
            mid = (low_value + high_value) // 2
            collect(low_value, mid)
            collect(mid + 1, high_value)

        collect(0, mask(width))
        self.stats.assignments_tried += tried
        cached = frozenset(values)
        self._unary_sat[key] = cached
        return cached

    @staticmethod
    def _collect_widths(expr: Expr, widths: Dict[str, int]) -> None:
        stack = [expr]
        while stack:
            node = stack.pop()
            if node.op is ExprOp.VAR:
                widths[node.name] = max(widths.get(node.name, 0), node.width)
            stack.extend(node.operands)
