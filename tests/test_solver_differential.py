"""Randomized differential tests for the solver's optimization layers.

Two generations of machinery are locked down here:

* the PR 3 layers (caching, independence decomposition, model reuse,
  interning) via a long-lived optimized solver checked against a fresh
  cache-free naive configuration on >= 1,000 generated queries;
* the switchable layers via a **feature-flag matrix**: every on/off
  combination of {independence, cache, rewrite-equalities} answers the
  same >= 500 randomized queries and must produce the naive
  configuration's verdict bit for bit, with every returned model
  re-checked by substitution into the *original* (unrewritten) query;
* branch-and-prune separately against an analytic ground truth on wide
  (>16-bit) variable queries.

Queries are generated small enough that the naive CSP always terminates
within the assignment budget, so both configurations produce exact answers
and must match bit for bit.  ``SOLVER_DIFFERENTIAL_QUERIES`` /
``SOLVER_DIFFERENTIAL_MATRIX_QUERIES`` shrink the query counts for smoke
runs (the CI gate uses this to keep a reduced matrix in every pipeline).
"""

import itertools
import os
import random

import pytest

from repro.symex import (
    ExecutionState, ExprOp, Solver, SolverConfig, binary, const, not_expr,
    var,
)

QUERY_COUNT = int(os.environ.get("SOLVER_DIFFERENTIAL_QUERIES", "1200"))
MATRIX_QUERY_COUNT = int(
    os.environ.get("SOLVER_DIFFERENTIAL_MATRIX_QUERIES", "500"))
WIDE_QUERY_COUNT = int(
    os.environ.get("SOLVER_DIFFERENTIAL_WIDE_QUERIES", "300"))

#: Every switchable layer off: the trusted baseline configuration.
NAIVE_CONFIG = SolverConfig(independence=False, cache=False,
                            rewrite_equalities=False)

_COMPARISONS = [ExprOp.EQ, ExprOp.NE, ExprOp.ULT, ExprOp.ULE,
                ExprOp.SLT, ExprOp.SLE]
_ARITH = [ExprOp.ADD, ExprOp.SUB, ExprOp.MUL, ExprOp.AND, ExprOp.OR,
          ExprOp.XOR, ExprOp.SHL, ExprOp.LSHR]


def _random_term(rng, variables, depth=0):
    """A width-8 term over ``variables`` (at most the given names)."""
    if depth >= 2 or rng.random() < 0.45:
        if rng.random() < 0.6:
            return var(8, rng.choice(variables))
        return const(8, rng.randrange(256))
    op = rng.choice(_ARITH)
    lhs = _random_term(rng, variables, depth + 1)
    rhs = _random_term(rng, variables, depth + 1)
    return binary(op, lhs, rhs)


def _random_constraint(rng, variables):
    op = rng.choice(_COMPARISONS)
    lhs = _random_term(rng, variables)
    rhs = _random_term(rng, variables)
    constraint = binary(op, lhs, rhs)
    if rng.random() < 0.25:
        constraint = not_expr(constraint)
    return constraint


def _random_query(rng):
    """1-3 random constraints over at most two distinct variables, plus a
    unary domain bound per variable.  The bounds keep the naive
    single-group CSP small (its search is quadratic in the domain sizes),
    so both solver configurations always answer exactly."""
    variables = rng.choice([["x"], ["y"], ["x", "y"]])
    count = rng.randrange(1, 4)
    query = [_random_constraint(rng, variables) for _ in range(count)]
    for name in variables:
        query.append(binary(ExprOp.ULT, var(8, name),
                            const(8, rng.choice([16, 32, 48]))))
    return query


def test_optimized_solver_agrees_with_naive_on_random_queries():
    rng = random.Random(20260729)
    optimized = Solver()  # long-lived: caches stay warm across queries
    queries = []
    for _ in range(QUERY_COUNT):
        query = _random_query(rng)
        queries.append(query)
        # Re-ask a prefix/superset of an earlier query now and then, to
        # drive the model-reuse and subset/superset cache paths.
        if len(queries) > 10 and rng.random() < 0.3:
            earlier = rng.choice(queries[:-1])
            if rng.random() < 0.5:
                query = earlier[:max(1, len(earlier) - 1)]
            else:
                query = earlier + query[:1]
            queries.append(query)

    assert len(queries) >= QUERY_COUNT
    disagreements = []
    for index, query in enumerate(queries):
        fast = optimized.check(query)
        naive = Solver(enable_cache=False, enable_independence=False)
        slow = naive.check(query)
        assert fast.exact and slow.exact, \
            "differential queries must stay within the search budget"
        if fast.satisfiable != slow.satisfiable:
            disagreements.append((index, query, fast.satisfiable,
                                  slow.satisfiable))
        if fast.satisfiable:
            model = optimized.get_model(query)
            assert model is not None
            assert all(c.evaluate(model) == 1 for c in query), \
                (index, [c.render() for c in query], model)
    assert not disagreements, disagreements[:3]
    # The run must actually have exercised the optimization layers.
    stats = optimized.stats
    assert stats.cache_hits > 0
    assert stats.model_cache_hits > 0
    assert stats.fast_path_decisions > 0
    assert stats.ubtree_hits > 0


def test_differential_may_be_true_false_and_branches():
    """The branch primitive agrees with two independent naive queries."""
    rng = random.Random(1337)
    optimized = Solver()
    for index in range(300):
        constraints = _random_query(rng)
        condition = _random_constraint(rng, ["x", "y"])
        naive = Solver(enable_cache=False, enable_independence=False)
        base_sat = naive.check(constraints).satisfiable
        if not base_sat:
            continue  # check_branch assumes a satisfiable base
        expected = (naive.may_be_true(constraints, condition),
                    naive.may_be_false(constraints, condition))
        got = optimized.check_branch(constraints, condition)
        assert got == expected, (index, [c.render() for c in constraints],
                                 condition.render())


# ---------------------------------------------------------------------------
# The Solver-v2 feature-flag matrix
# ---------------------------------------------------------------------------
def _matrix_queries(rng):
    """Like :func:`_random_query`, with two twists that give the v2 layers
    traction: plain equalities (both ``var == const`` and
    ``expr == const``) appear frequently, and earlier queries are re-asked
    as subsets/supersets to drive the UBTree containment lookups."""
    queries = []
    while len(queries) < MATRIX_QUERY_COUNT:
        query = _random_query(rng)
        if rng.random() < 0.5:
            name = rng.choice(["x", "y"])
            lhs = var(8, name) if rng.random() < 0.5 \
                else binary(ExprOp.AND, var(8, name),
                            const(8, rng.choice([0x0F, 0x3F, 0x7F])))
            query.append(binary(ExprOp.EQ, lhs,
                                const(8, rng.randrange(48))))
        rng.shuffle(query)
        queries.append(query)
        if len(queries) > 10 and rng.random() < 0.25:
            earlier = rng.choice(queries[:-1])
            if rng.random() < 0.5:
                queries.append(earlier[:max(1, len(earlier) - 1)])
            else:
                queries.append(earlier + query[:1])
    return queries


@pytest.fixture(scope="module")
def matrix_baseline():
    """The shared query list plus the naive configuration's verdicts."""
    rng = random.Random(0xB5EED)
    queries = _matrix_queries(rng)
    naive = Solver(config=NAIVE_CONFIG)
    verdicts = []
    for query in queries:
        result = naive.check(query)
        assert result.exact, "matrix queries must stay within the budget"
        verdicts.append(result.satisfiable)
    return queries, verdicts


def _rewrite_through_state(query, enabled):
    """Route a query through ``ExecutionState.add_constraint`` (where
    equality rewriting lives) and return the resulting path condition."""
    state = ExecutionState(rewrite_equalities=enabled)
    for constraint in query:
        state.add_constraint(constraint)
    return list(state.constraints), state


@pytest.mark.parametrize(
    "independence,cache,rewrite",
    list(itertools.product([False, True], repeat=3)),
    ids=lambda flag: {True: "on", False: "off"}[flag])
def test_feature_flag_matrix_agrees_with_naive(matrix_baseline, independence,
                                               cache, rewrite):
    """Each of the 8 flag combinations answers every query with the naive
    verdict, and every SAT model — produced from the *rewritten* constraint
    set — satisfies the *original* query by substitution."""
    queries, verdicts = matrix_baseline
    assert len(queries) >= MATRIX_QUERY_COUNT
    solver = Solver(config=SolverConfig(
        independence=independence, cache=cache, rewrite_equalities=rewrite))
    mismatches = []
    for index, (query, expected) in enumerate(zip(queries, verdicts)):
        effective, _ = _rewrite_through_state(query, rewrite)
        result = solver.check(effective)
        assert result.exact, (index, [c.render() for c in effective])
        if result.satisfiable != expected:
            mismatches.append((index, [c.render() for c in query],
                               result.satisfiable, expected))
            continue
        if result.satisfiable:
            model = solver.get_model(effective)
            assert model is not None, (index, [c.render() for c in query])
            variables = set().union(*(c.variables() for c in query))
            completed = {name: model.get(name, 0) for name in variables}
            assert all(c.evaluate(completed) == 1 for c in query), \
                (index, [c.render() for c in query], completed)
    assert not mismatches, mismatches[:3]


def test_matrix_full_configuration_exercises_all_layers(matrix_baseline):
    """With every flag on, the matrix workload must actually drive the new
    machinery (otherwise the matrix proves nothing)."""
    queries, _ = matrix_baseline
    solver = Solver()
    rewrites = 0
    for query in queries:
        effective, state = _rewrite_through_state(query, True)
        rewrites += state.rewrites_applied
        solver.check(effective)
    assert solver.stats.ubtree_hits > 0
    assert solver.stats.ubtree_misses > 0
    assert rewrites > 0


# ---------------------------------------------------------------------------
# Branch-and-prune on wide variables, against an analytic ground truth
# ---------------------------------------------------------------------------
_WIDE_WIDTH = 32


def _random_wide_query(rng):
    """1-4 direct comparisons of a 32-bit variable against constants.

    For this family every satisfiable conjunction has a witness among the
    *critical points* (each constant and its neighbours, plus the domain
    and sign boundaries), so an exact ground truth is one evaluation pass —
    no solver in the loop.
    """
    w = var(_WIDE_WIDTH, "w")
    constants = []
    query = []
    for _ in range(rng.randrange(1, 5)):
        op = rng.choice(_COMPARISONS)
        value = rng.choice([
            rng.randrange(1 << _WIDE_WIDTH),
            rng.randrange(0, 4096),
            (1 << _WIDE_WIDTH) - 1 - rng.randrange(0, 4096),
            (1 << (_WIDE_WIDTH - 1)) + rng.randrange(-2048, 2048),
        ]) & ((1 << _WIDE_WIDTH) - 1)
        constants.append(value)
        if rng.random() < 0.5:
            query.append(binary(op, w, const(_WIDE_WIDTH, value)))
        else:
            query.append(binary(op, const(_WIDE_WIDTH, value), w))
    return query, constants


def _wide_ground_truth(query, constants):
    mask_value = (1 << _WIDE_WIDTH) - 1
    critical = {0, 1, mask_value, mask_value - 1,
                1 << (_WIDE_WIDTH - 1), (1 << (_WIDE_WIDTH - 1)) - 1}
    for value in constants:
        critical.update({(value - 1) & mask_value, value,
                         (value + 1) & mask_value})
    for point in critical:
        if all(c.evaluate({"w": point}) == 1 for c in query):
            return True, point
    return False, None


def test_branch_and_prune_is_exact_on_wide_queries():
    """Wide-variable queries are decided exactly (and correctly) by
    branch-and-prune."""
    rng = random.Random(0x51DE)
    unsat_seen = 0
    for index in range(WIDE_QUERY_COUNT):
        query, constants = _random_wide_query(rng)
        expected, witness = _wide_ground_truth(query, constants)
        solver = Solver(config=SolverConfig(cache=False))
        result = solver.check(query)
        assert result.exact, \
            (index, [c.render() for c in query], "budget exhausted")
        assert result.satisfiable == expected, \
            (index, [c.render() for c in query], witness)
        if expected:
            model = solver.get_model(query)
            assert model is not None
            assert all(c.evaluate(model) == 1 for c in query), \
                (index, [c.render() for c in query], model)
        else:
            unsat_seen += 1
    assert unsat_seen > 0, "the generator produced no UNSAT wide queries"


def test_branch_and_prune_budget_exhaustion_stays_conservative():
    """A wide query outside interval arithmetic's reach must degrade to the
    conservative inexact answer, never to a wrong UNSAT proof."""
    w = var(_WIDE_WIDTH, "w")
    hard = [binary(ExprOp.EQ, binary(ExprOp.MUL, w, w),
                   const(_WIDE_WIDTH, 12345))]
    solver = Solver(config=SolverConfig(cache=False))
    result = solver.check(hard)
    assert result.satisfiable or not result.exact
    assert solver.stats.prune_splits > 0
