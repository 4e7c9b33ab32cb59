"""Randomized differential tests for the solver's optimization layers.

Every optimized-side query goes through the path the engine's verdicts
use: the constraints are added to an ``ExecutionState``, which splits them
into variable-disjoint groups, and the query is answered by the
partitioned entry points (``check_partition``, ``check_branch_partition``,
``model_for_partition``).  The reference is a naive configuration (caches
and equality rewriting off) that solves the whole query as one group, so
no grouping decision of the optimized side is taken on trust.

Four families of checks:

* the PR 3 layers (caching, group decomposition, model reuse, interning)
  via a long-lived optimized solver checked against the naive reference on
  >= 1,000 generated queries, plus two-sided branch queries;
* the switchable layers via a **feature-flag matrix**: every on/off
  combination of {cache, rewrite-equalities} answers the same >= 500
  randomized queries and must produce the naive verdict bit for bit, with
  every returned model re-checked by substitution into the *original*
  (unrewritten) query;
* branch-and-prune separately against an analytic ground truth on wide
  (>16-bit) variable queries;
* the CSP search's literal propagation and value classes against
  **exhaustive enumeration**: the naive configuration runs those layers
  too, so here every point of a 65,536-point space is evaluated by a
  separately written evaluator, for if-conversion chains, literals next to
  their negations and literals nested in ``ite`` conditions.

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

from conftest import as_partition
from repro.symex import (
    ExecutionState, ExprOp, Solver, SolverConfig, binary, const, ite,
    not_expr, sext, var, zext,
)

QUERY_COUNT = int(os.environ.get("SOLVER_DIFFERENTIAL_QUERIES", "1200"))
MATRIX_QUERY_COUNT = int(
    os.environ.get("SOLVER_DIFFERENTIAL_MATRIX_QUERIES", "500"))
WIDE_QUERY_COUNT = int(
    os.environ.get("SOLVER_DIFFERENTIAL_WIDE_QUERIES", "300"))
#: Queries per enumerated family.  The three families take about 5 s, so
#: the CI gate runs them at this count too.
ENUMERATED_QUERY_COUNT = 40

#: Every switchable layer off: the trusted baseline configuration.
NAIVE_CONFIG = SolverConfig(cache=False, rewrite_equalities=False)


def _naive(query):
    """The reference verdict: the whole query as one group, solved by a
    fresh solver with every switchable layer off."""
    return Solver(config=NAIVE_CONFIG).check_partition((), [tuple(query)])


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
    """Each query is asked the way the engine asks about a path: all but
    its last constraint form the state's partition and the last one is the
    query's extra constraint, which the solver must join with the groups
    sharing its variables."""
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
        fast = optimized.check_partition(*as_partition(query[:-1]),
                                         query[-1:])
        slow = _naive(query)
        assert fast.exact and slow.exact, \
            "differential queries must stay within the search budget"
        if fast.satisfiable != slow.satisfiable:
            disagreements.append((index, query, fast.satisfiable,
                                  slow.satisfiable))
        if fast.satisfiable:
            model = optimized.model_for_partition(*as_partition(query))
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
    """The branch primitives, on the relevant part of a state's partition,
    agree with two one-group naive queries."""
    rng = random.Random(1337)
    optimized = Solver()
    compared = 0
    for index in range(300):
        constraints = _random_query(rng)
        condition = _random_constraint(rng, ["x", "y"])
        if not _naive(constraints).satisfiable:
            continue  # the engine only branches on satisfiable states
        compared += 1
        expected = (_naive(constraints + [condition]).satisfiable,
                    _naive(constraints + [not_expr(condition)]).satisfiable)
        _, state = _rewrite_through_state(constraints, False)
        partition = state.relevant_partition(condition)
        got = optimized.check_branch_partition(*partition, condition)
        assert got == expected, (index, [c.render() for c in constraints],
                                 condition.render())
        assert (optimized.may_be_true_partition(*partition, condition),
                optimized.may_be_true_partition(
                    *partition, not_expr(condition))) == expected, index
    assert compared > 100
    assert optimized.stats.branch_sides_free > 0


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
    verdicts = []
    for query in queries:
        result = _naive(query)
        assert result.exact, "matrix queries must stay within the budget"
        verdicts.append(result.satisfiable)
    return queries, verdicts


def _rewrite_through_state(query, enabled):
    """Route a query through ``ExecutionState.add_constraint`` (where
    equality rewriting and the group partition live) and return the
    resulting path condition and the state."""
    state = ExecutionState(rewrite_equalities=enabled)
    for constraint in query:
        state.add_constraint(constraint)
    return list(state.constraints), state


@pytest.mark.parametrize(
    "cache,rewrite",
    list(itertools.product([False, True], repeat=2)),
    ids=lambda flag: {True: "on", False: "off"}[flag])
def test_feature_flag_matrix_agrees_with_naive(matrix_baseline, cache,
                                               rewrite):
    """Each of the 4 flag combinations answers every query with the naive
    verdict, and every SAT model — produced from the *rewritten* state's
    partition — satisfies the *original* query by substitution."""
    queries, verdicts = matrix_baseline
    assert len(queries) >= MATRIX_QUERY_COUNT
    solver = Solver(config=SolverConfig(cache=cache,
                                        rewrite_equalities=rewrite))
    mismatches = []
    for index, (query, expected) in enumerate(zip(queries, verdicts)):
        effective, state = _rewrite_through_state(query, rewrite)
        result = solver.check_partition(*state.full_partition())
        assert result.exact, (index, [c.render() for c in effective])
        if result.satisfiable != expected:
            mismatches.append((index, [c.render() for c in query],
                               result.satisfiable, expected))
            continue
        if result.satisfiable:
            model = solver.model_for_partition(*state.full_partition())
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
        _, state = _rewrite_through_state(query, True)
        rewrites += state.rewrites_applied
        solver.check_partition(*state.full_partition())
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
        result = solver.check_partition(*as_partition(query))
        assert result.exact, \
            (index, [c.render() for c in query], "budget exhausted")
        assert result.satisfiable == expected, \
            (index, [c.render() for c in query], witness)
        if expected:
            model = solver.model_for_partition(*as_partition(query))
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
    result = solver.check_partition(*as_partition(hard))
    assert result.satisfiable or not result.exact
    assert solver.stats.prune_splits > 0


# ---------------------------------------------------------------------------
# Literal propagation and value classes, against exhaustive enumeration
# ---------------------------------------------------------------------------
#: ``op -> format`` of the enumeration's evaluator, written from the
#: operators' definitions rather than taken from ``Expr.evaluate``.
#: ``{m}`` is the result mask, ``{h}`` the operand sign bit.
_PYTHON_OPS = {
    ExprOp.ADD: "({a} + {b}) & {m}", ExprOp.SUB: "({a} - {b}) & {m}",
    ExprOp.MUL: "({a} * {b}) & {m}", ExprOp.AND: "{a} & {b}",
    ExprOp.OR: "{a} | {b}", ExprOp.XOR: "{a} ^ {b}",
    ExprOp.EQ: "int({a} == {b})", ExprOp.NE: "int({a} != {b})",
    ExprOp.ULT: "int({a} < {b})", ExprOp.ULE: "int({a} <= {b})",
    ExprOp.SLT: "int(({a} ^ {h}) - {h} < ({b} ^ {h}) - {h})",
    ExprOp.SLE: "int(({a} ^ {h}) - {h} <= ({b} ^ {h}) - {h})",
    ExprOp.ZEXT: "{a}", ExprOp.TRUNC: "{a} & {m}",
    ExprOp.SEXT: "(({a} ^ {h}) - {h}) & {m}",
    ExprOp.ITE: "{b} if {a} else {c}",
}


def _compiled(query, names):
    """A Python function of ``names`` that is 1 exactly when every
    constraint of ``query`` holds: one assignment per DAG node."""
    slots = {}
    lines = []

    def emit(node):
        if node in slots:
            return slots[node]
        if node.op is ExprOp.CONST:
            return str(node.value)
        if node.op is ExprOp.VAR:
            return node.name
        operands = [emit(operand) for operand in node.operands]
        operands += ["0"] * (3 - len(operands))
        slot = f"v{len(lines)}"
        source = _PYTHON_OPS[node.op].format(
            a=operands[0], b=operands[1], c=operands[2],
            m=(1 << node.width) - 1,
            h=1 << (node.operands[0].width - 1))
        lines.append(f"    {slot} = {source}")
        slots[node] = slot
        return slot

    roots = [emit(constraint) for constraint in query]
    lines.append(f"    return {' and '.join(roots)}")
    namespace = {}
    exec(f"def holds({', '.join(names)}):\n" + "\n".join(lines), namespace)
    return namespace["holds"]


def _enumerated(query, names, values):
    """(first model or None, holds) by trying the points of
    ``values ** names`` in the plain search's order: variables with the
    fewest values their unary constraints allow first (ties by name),
    each variable's values ascending.  ``holds`` checks a model."""
    def allowed(name):
        unary = [c for c in query if c.variables() == {name}]
        check = _compiled(unary, [name]) if unary else None
        return sum(1 for value in values if check is None or check(value))

    order = sorted(names, key=allowed)
    in_order = _compiled(query, order)
    first = next((dict(zip(order, point)) for point in
                  itertools.product(values, repeat=len(order))
                  if in_order(*point)), None)
    return first, _compiled(query, names)


def _space(rng):
    """Two free bytes, or two to four variables each bounded by
    ``in_i <u 16``: 65,536 points at most either way.  The bounds are
    part of the query, so enumerating below 16 covers every model."""
    if rng.random() < 0.5:
        return ["in_0", "in_1"], range(256), []
    names = [f"in_{i}" for i in range(rng.randrange(2, 5))]
    bounds = [binary(ExprOp.ULT, var(8, name), const(8, 16))
              for name in names]
    return names, range(16), bounds


def _byte_literal(rng, name, values):
    """A 1-bit test of one byte against a constant, as the front end and
    if-conversion write them."""
    byte = var(8, name)
    constant = rng.choice([0, 1, 3, 9, 15, 16, 47, 58, 255,
                           rng.choice(values)])
    kind = rng.randrange(5)
    if kind == 0:
        return binary(ExprOp.EQ, byte, const(8, constant))
    if kind == 1:
        return binary(ExprOp.NE, byte, const(8, constant))
    if kind == 2:
        return binary(ExprOp.ULT, byte, const(8, constant))
    if kind == 3:
        return binary(ExprOp.ULE, const(8, constant), byte)
    return binary(ExprOp.SLT, zext(byte, 32), const(32, constant))


def _ite_chain(rng, names, values):
    """``ite(in_i == c, k, ... ite(in_j == d, l, -1))``: the select chain
    if-conversion leaves behind, with small (and negative) leaves."""
    chain = const(32, rng.choice([-1, 0, 7]))
    for _ in range(rng.randrange(1, 5)):
        chain = ite(_byte_literal(rng, rng.choice(names), values),
                    const(32, rng.randrange(-4, 8)), chain)
    return chain


def _chain_constraint(rng, names, values):
    """A comparison over one or two ite chains, under ``+`` and ``sext``
    (basename's ``(t + 1) + 4136 == 0`` is one of these)."""
    chain = _ite_chain(rng, names, values)
    if rng.random() < 0.4:
        return binary(rng.choice(_COMPARISONS), chain,
                      _ite_chain(rng, names, values))
    wide = binary(ExprOp.ADD, sext(chain, 64),
                  const(64, rng.choice([1, 4136, -3])))
    target = binary(ExprOp.ADD, const(64, rng.randrange(-4, 8)),
                    const(64, rng.choice([1, 4136, -3])))
    if rng.random() < 0.3:
        target = const(64, 0)
    return binary(rng.choice(_COMPARISONS), wide, target)


def _coupling_literal(rng, names, values):
    """A 1-bit term over two variables."""
    first, second = rng.sample(names, 2)
    kind = rng.randrange(4)
    if kind == 0:
        return binary(ExprOp.EQ, zext(var(8, first), 32),
                      zext(var(8, second), 32))
    if kind == 1:
        return binary(ExprOp.ULT, var(8, first), var(8, second))
    if kind == 2:
        return ite(_byte_literal(rng, first, values),
                   _byte_literal(rng, second, values),
                   _byte_literal(rng, second, values))
    return _chain_constraint(rng, [first, second], values)


def _chain_query(rng):
    names, values, bounds = _space(rng)
    query = [_chain_constraint(rng, names, values)
             for _ in range(rng.randrange(1, 4))]
    return names, values, bounds + query


def _negation_query(rng):
    """A literal with its negation, written as ``not_expr`` does or as a
    plain ``xor 1``; now and then a different literal instead, so that not
    every query is UNSAT."""
    names, values, bounds = _space(rng)
    literal = _coupling_literal(rng, names, values)
    if rng.random() < 0.7:
        other = not_expr(literal) if rng.random() < 0.6 \
            else binary(ExprOp.XOR, literal, const(1, 1))
    else:
        other = _coupling_literal(rng, names, values)
    query = [literal, other]
    if rng.random() < 0.5:
        query.append(_chain_constraint(rng, names, values))
    rng.shuffle(query)
    return names, values, bounds + query


def _nested_query(rng):
    """A constraint set where one constraint (or its negation) is the
    condition of ``ite`` nodes inside another.  The ``not x`` next to a
    term holding ``x`` is the shape where a constraint must not rewrite
    itself."""
    names, values, bounds = _space(rng)
    literal = _coupling_literal(rng, names, values) if rng.random() < 0.5 \
        else _byte_literal(rng, rng.choice(names), values)
    asserted = literal if rng.random() < 0.5 else not_expr(literal)
    inner = literal if rng.random() < 0.5 else not_expr(literal)
    first, second = rng.choice(names), rng.choice(names)
    kind = rng.randrange(3)
    if kind == 0:
        nested = binary(rng.choice(_COMPARISONS),
                        ite(inner, zext(var(8, first), 32),
                            const(32, rng.randrange(16))),
                        ite(inner, const(32, rng.randrange(16)),
                            zext(var(8, second), 32)))
    elif kind == 1:
        nested = ite(inner, _byte_literal(rng, first, values),
                     _coupling_literal(rng, names, values))
    else:
        nested = binary(ExprOp.XOR,
                        ite(inner, _byte_literal(rng, first, values),
                            _byte_literal(rng, second, values)),
                        const(1, 1))
    query = [asserted, nested]
    if rng.random() < 0.4:
        query.append(_chain_constraint(rng, names, values))
    rng.shuffle(query)
    return names, values, bounds + query


_ENUMERATED_FAMILIES = {"ite-chains": _chain_query,
                        "literal-and-negation": _negation_query,
                        "nested-literals": _nested_query}


#: Assignment budget of the uncached solver per family.  Every variable
#: of an ite-chain query is class-reducible, so a few representatives per
#: variable answer it: a budget far below the 65,536-point space must
#: still give exact answers there.
_ENUMERATED_BUDGETS = {"ite-chains": 2_000}


@pytest.mark.parametrize("family", sorted(_ENUMERATED_FAMILIES))
def test_csp_layers_agree_with_enumeration(family):
    """Every verdict matches exhaustive enumeration, every model the
    solver returns holds under the enumeration's own evaluator, and
    ``concretization_model`` (a fresh search) returns the enumeration's
    first model: the two layers leave the model a plain search finds
    unchanged."""
    make = _ENUMERATED_FAMILIES[family]
    rng = random.Random(f"enumerated:{family}")
    solver = Solver()
    budget = _ENUMERATED_BUDGETS.get(family, SolverConfig.max_assignments)
    verdicts = set()
    for index in range(ENUMERATED_QUERY_COUNT):
        names, values, query = make(rng)
        first, holds = _enumerated(query, names, values)
        expected = first is not None
        shown = [c.render() for c in query]
        fresh = Solver(config=SolverConfig(cache=False,
                                           max_assignments=budget))
        for engine in (solver, fresh):
            result = engine.check_partition(*as_partition(query))
            assert result.exact, (index, shown)
            assert result.satisfiable == expected, (index, shown)
        verdicts.add(expected)
        if not expected:
            assert solver.concretization_model(*as_partition(query)) is None
            continue
        model = solver.model_for_partition(*as_partition(query))
        assert model is not None, (index, shown)
        assert holds(*(model.get(name, 0) for name in names)), \
            (index, shown, model)
        model = fresh.concretization_model(*as_partition(query))
        assert model is not None, (index, shown)
        assert {name: model.get(name, 0) for name in names} == first, \
            (index, shown, model)
    assert verdicts == {True, False}, f"{family}: one-sided verdicts"


def test_literal_with_its_negation_needs_no_search():
    """A group holding a literal and its negation is UNSAT before the
    search starts: with a budget of one assignment the answer is still an
    exact UNSAT, for the join shape and for dirname's shared ite term."""
    in_0, in_1 = var(8, "in_0"), var(8, "in_1")
    equal = binary(ExprOp.EQ, zext(in_1, 32), zext(in_0, 32))
    chain = ite(binary(ExprOp.EQ, in_1, const(8, 47)), const(32, 1),
                ite(binary(ExprOp.EQ, in_0, const(8, 47)), const(32, 0),
                    const(32, -1)))
    below = binary(ExprOp.SLE, chain, const(32, 0))
    for query in ([equal, not_expr(equal)], [below, not_expr(below)]):
        solver = Solver(config=SolverConfig(cache=False, max_assignments=1))
        result = solver.check_partition(*as_partition(query))
        assert result.exact and not result.satisfiable


def test_a_constraint_does_not_rewrite_itself():
    """``not x`` where the group's unary facts force ``x`` true is UNSAT.
    Substituting ``x -> false`` inside ``not x`` itself would turn that
    constraint into true and drop it, leaving only the satisfiable facts."""
    in_0, in_1 = var(8, "in_0"), var(8, "in_1")
    x = ite(binary(ExprOp.EQ, in_0, const(8, 3)),
            binary(ExprOp.EQ, in_1, const(8, 4)),
            binary(ExprOp.ULT, in_1, const(8, 9)))
    query = [not_expr(x), binary(ExprOp.EQ, in_0, const(8, 3)),
             binary(ExprOp.EQ, in_1, const(8, 4))]
    result = Solver().check_partition(*as_partition(query))
    assert result.exact and not result.satisfiable
