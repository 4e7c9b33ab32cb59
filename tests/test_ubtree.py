"""Property tests for the UBTree (set-trie) counterexample index.

The solver's soundness rests on three containment properties:

* **subset soundness** — ``find_subset`` only ever reports sets that really
  are subsets of the query (an UNSAT subset proves the query UNSAT);
* **superset soundness** — ``find_superset`` only ever reports sets that
  contain every queried element, so a SAT superset's model can never
  violate a queried constraint;
* **lookup completeness** — after inserting a set, every subset query must
  find it via ``find_superset``, every superset query via ``find_subset``,
  and ``contains`` must round-trip under arbitrary element orderings.

The properties are checked on randomized constraint sets drawn from the
same expression shapes the symbolic executor produces.
"""

import random

import pytest

from conftest import as_partition
from repro.symex import ExprOp, UBTree, binary, const, not_expr, var

_COMPARISONS = [ExprOp.EQ, ExprOp.NE, ExprOp.ULT, ExprOp.ULE]


def _constraint_pool(rng, size=40):
    """Distinct comparison constraints over a handful of byte variables."""
    pool = set()
    names = ["a", "b", "c", "d"]
    while len(pool) < size:
        op = rng.choice(_COMPARISONS)
        lhs = var(8, rng.choice(names))
        if rng.random() < 0.4:
            lhs = binary(ExprOp.AND, lhs, const(8, rng.randrange(1, 256)))
        constraint = binary(op, lhs, const(8, rng.randrange(256)))
        if rng.random() < 0.2:
            constraint = not_expr(constraint)
        if constraint.is_constant:
            continue
        pool.add(constraint)
    return sorted(pool, key=lambda c: c.render())


def _random_subsets(rng, pool, count):
    return [frozenset(rng.sample(pool, rng.randrange(1, min(8, len(pool)))))
            for _ in range(count)]


class TestInsertLookupRoundTrip:
    def test_contains_is_order_independent(self):
        rng = random.Random(1)
        pool = _constraint_pool(rng)
        tree = UBTree()
        stored = _random_subsets(rng, pool, 60)
        for index, elements in enumerate(stored):
            shuffled = list(elements)
            rng.shuffle(shuffled)
            tree.insert(shuffled, index)
        for elements in stored:
            shuffled = list(elements)
            rng.shuffle(shuffled)
            assert tree.contains(shuffled)
        assert len(tree) == len(set(stored))

    def test_absent_sets_are_not_contained(self):
        rng = random.Random(2)
        pool = _constraint_pool(rng)
        tree = UBTree()
        stored = set(_random_subsets(rng, pool, 40))
        for index, elements in enumerate(stored):
            tree.insert(elements, index)
        for candidate in _random_subsets(rng, pool, 200):
            assert tree.contains(candidate) == (candidate in stored)

    def test_every_inserted_set_is_kept(self):
        """The index has no size cap: however many sets go in, each stays
        retrievable with its own payload."""
        rng = random.Random(10)
        pool = _constraint_pool(rng, size=120)
        tree = UBTree()
        stored = [frozenset(pool[i * 3:(i + 1) * 3]) for i in range(40)]
        for index, elements in enumerate(stored):
            tree.insert(elements, index)
        assert len(tree) == len(stored)
        for index, elements in enumerate(stored):
            assert tree.contains(elements)
            # The sets are disjoint, so each is its own only superset.
            assert tree.find_superset(elements) == index

    def test_reinsert_replaces_payload(self):
        rng = random.Random(3)
        pool = _constraint_pool(rng)
        tree = UBTree()
        elements = pool[:3]
        tree.insert(elements, "first")
        tree.insert(list(reversed(elements)), "second")
        assert len(tree) == 1
        assert tree.find_superset(elements) == "second"


class TestSupersetLookup:
    def test_inserted_model_found_for_every_subset_of_its_constraints(self):
        """Inserting a model keyed by the constraint set it satisfies must
        make every subset query hit."""
        rng = random.Random(4)
        pool = _constraint_pool(rng)
        tree = UBTree()
        stored = frozenset(rng.sample(pool, 7))
        tree.insert(stored, {"a": 1})
        for _ in range(100):
            subset = frozenset(rng.sample(
                sorted(stored, key=lambda c: c.render()),
                rng.randrange(1, len(stored) + 1)))
            assert tree.find_superset(subset) == {"a": 1}

    def test_superset_lookup_never_violates_a_queried_constraint(self):
        """Whatever ``find_superset`` returns was stored with a set
        containing every queried constraint, so the attached model — which
        satisfies the stored set by construction — satisfies the query."""
        rng = random.Random(5)
        pool = _constraint_pool(rng)
        tree = UBTree()
        payloads = {}
        for index, elements in enumerate(_random_subsets(rng, pool, 80)):
            model = {name: rng.randrange(256) for name in "abcd"}
            if all(c.evaluate(model) == 1 for c in elements):
                tree.insert(elements, dict(model))
                payloads[index] = (elements, model)
        assert payloads, "generator never produced a satisfied set"
        hits = 0
        for query in _random_subsets(rng, pool, 400):
            model = tree.find_superset(query)
            if model is None:
                continue
            hits += 1
            assert all(c.evaluate(model) == 1 for c in query), \
                ([c.render() for c in query], model)
        assert hits > 0, "no superset lookup ever hit"

    def test_no_false_negatives_against_linear_scan(self):
        rng = random.Random(6)
        pool = _constraint_pool(rng)
        tree = UBTree()
        stored = _random_subsets(rng, pool, 60)
        for index, elements in enumerate(stored):
            tree.insert(elements, index)
        for query in _random_subsets(rng, pool, 300):
            expected = any(query <= candidate for candidate in stored)
            assert (tree.find_superset(query) is not None) == expected


class TestSubsetLookup:
    def test_found_payload_is_a_real_subset(self):
        rng = random.Random(7)
        pool = _constraint_pool(rng)
        tree = UBTree()
        stored = _random_subsets(rng, pool, 60)
        for elements in stored:
            tree.insert(elements, elements)
        for query in _random_subsets(rng, pool, 300):
            found = tree.find_subset(query)
            if found is not None:
                assert found <= query
            else:
                assert not any(candidate <= query for candidate in stored)

    def test_iter_subsets_enumerates_exactly_the_stored_subsets(self):
        rng = random.Random(8)
        pool = _constraint_pool(rng)
        tree = UBTree()
        stored = set(_random_subsets(rng, pool, 50))
        for elements in stored:
            tree.insert(elements, elements)
        for query in _random_subsets(rng, pool, 120):
            found = set(map(frozenset, tree.iter_subsets(query)))
            expected = {candidate for candidate in stored
                        if candidate <= query}
            assert found == expected

    def test_unknown_elements_do_not_block_subset_search(self):
        rng = random.Random(9)
        pool = _constraint_pool(rng, size=12)
        tree = UBTree()
        tree.insert(pool[:2], "hit")
        never_inserted = binary(ExprOp.ULT, var(8, "zz"), const(8, 7))
        assert tree.find_subset(pool[:2] + [never_inserted]) == "hit"
        # ...but a superset lookup over an unknown element must miss.
        assert tree.find_superset([never_inserted]) is None


class TestSolverIndexing:
    def test_solver_indexes_every_solved_group(self):
        """Every group the solver decides by search enters the table's
        index, SAT groups with their model and UNSAT groups as solved."""
        from repro.symex import Solver
        solver = Solver()
        for value in range(20):
            name = var(8, f"kept_{value}")
            assert solver.check_partition(*as_partition(
                [binary(ExprOp.ULT, const(8, 1), name),
                 binary(ExprOp.NE, name, const(8, value))])).satisfiable
        for value in range(5):
            name = var(8, f"dead_{value}")
            assert not solver.check_partition(*as_partition(
                [binary(ExprOp.ULT, name, const(8, 10)),
                 binary(ExprOp.ULT, const(8, 20), name)])).satisfiable
        assert len(solver._shared.sat_index) == 20
        assert len(solver._shared.unsat_index) == 5
