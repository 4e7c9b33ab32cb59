"""Invariant tests for the symbolic-execution hot path: hash-consed
expressions, the extended interval analysis, incremental per-state constraint
groups (with and without equality rewriting), copy-on-write forking, and the
solver's model-reuse caches, down to their counters on a whole
branch-heavy exploration."""

import gc
import random
import sys
import threading
import time

import pytest

from conftest import as_partition
from repro.frontend import compile_to_ir
from repro.symex import (
    ExecutionState, Expr, ExprOp, SharedSolverCaches, Solver, SolverConfig,
    SolverResult, SolverStats, StackFrame, SymbolicMemory, SymexLimits,
    binary, bounded_interval, const, explore, ite, not_expr, sext,
    substitute, trunc, unsigned_interval, var, zext,
)


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------
class TestHashConsing:
    def test_structurally_equal_expressions_are_identical(self):
        x = var(8, "x")
        a = binary(ExprOp.ADD, x, const(8, 7))
        b = binary(ExprOp.ADD, var(8, "x"), const(8, 7))
        assert a is b
        assert hash(a) == hash(b)

    def test_interning_is_recursive(self):
        first = binary(ExprOp.MUL, zext(var(8, "k"), 32), const(32, 3))
        second = binary(ExprOp.MUL, zext(var(8, "k"), 32), const(32, 3))
        assert first is second
        assert first.operands[0] is second.operands[0]

    def test_distinct_expressions_stay_distinct(self):
        x = var(8, "x")
        assert binary(ExprOp.ADD, x, const(8, 1)) is not \
            binary(ExprOp.ADD, x, const(8, 2))
        assert const(8, 5) is not const(16, 5)
        assert var(8, "x") is not var(8, "y")

    def test_interned_nodes_share_memoized_analyses(self):
        a = binary(ExprOp.AND, var(8, "m"), const(8, 0x0F))
        assert unsigned_interval(a) == (0, 0x0F)
        b = binary(ExprOp.AND, var(8, "m"), const(8, 0x0F))
        # Same object: the cached interval and variable set are shared.
        assert b._interval == (0, 0x0F)
        assert a.variables() is b.variables()

    def test_intern_table_entries_are_weak(self):
        def unique_tree():
            return binary(ExprOp.ADD,
                          binary(ExprOp.MUL, var(8, "weaktest"),
                                 const(8, 123)),
                          const(8, 91))

        tree = unique_tree()
        before = Expr.intern_table_size()
        del tree
        gc.collect()
        after = Expr.intern_table_size()
        # The dead tree's non-leaf nodes were evicted (leaves may be kept
        # alive by the strong const/var caches).
        assert after < before

    def test_boolean_subterms_are_memoized_on_the_node(self):
        x, y = var(8, "bx"), var(8, "by")
        inner = binary(ExprOp.EQ, x, const(8, 47))
        chain = ite(inner, zext(y, 32), const(32, 3))
        outer = binary(ExprOp.ULT, chain, const(32, 9))
        assert outer.boolean_subterms() == {inner}
        # Filled bottom-up: the operands' memos are set on the way.
        assert chain._bools == {inner}
        assert inner.boolean_subterms() == frozenset()

    def test_boolean_subterm_memo_keeps_no_node_alive(self):
        """The memo lives in a slot of its node, so computing it leaves
        dead expressions free to leave the weak intern table."""
        def unique_tree():
            flag = binary(ExprOp.EQ, var(8, "memotest"), const(8, 201))
            return binary(ExprOp.ULT, ite(flag, const(32, 1), const(32, 2)),
                          const(32, 2))

        tree = unique_tree()
        tree.boolean_subterms()
        before = Expr.intern_table_size()
        del tree
        gc.collect()
        assert Expr.intern_table_size() < before - 2

    def test_set_membership_uses_identity(self):
        x = var(8, "x")
        seen = {binary(ExprOp.ULT, x, const(8, 9))}
        assert binary(ExprOp.ULT, x, const(8, 9)) in seen
        assert frozenset([binary(ExprOp.ULT, x, const(8, 9))]) == \
            frozenset(seen)


# ---------------------------------------------------------------------------
# Iterative evaluation
# ---------------------------------------------------------------------------
class TestIterativeEvaluate:
    def test_deep_chain_does_not_recurse(self):
        expr = var(8, "x")
        for _ in range(5000):
            expr = binary(ExprOp.ADD, expr, var(8, "y"))
        # 5000 nested additions would overflow Python's recursion limit in a
        # recursive evaluator.
        assert expr.evaluate({"x": 1, "y": 1}) == (1 + 5000) & 0xFF

    def test_shared_subgraphs_evaluate_once_and_correctly(self):
        x = var(8, "x")
        shared = binary(ExprOp.MUL, x, const(8, 3))
        expr = binary(ExprOp.ADD, shared, binary(ExprOp.XOR, shared,
                                                 const(8, 0xFF)))
        assert expr.size() <= 6  # DAG nodes, not tree nodes
        for value in (0, 1, 77, 255):
            expected = ((value * 3) & 0xFF) + (((value * 3) & 0xFF) ^ 0xFF)
            assert expr.evaluate({"x": value}) == expected & 0xFF

    def test_missing_variable_raises_keyerror(self):
        expr = binary(ExprOp.ADD, var(8, "x"), var(8, "missing"))
        with pytest.raises(KeyError):
            expr.evaluate({"x": 1})

    def test_ite_and_casts_evaluate(self):
        x = var(8, "x")
        cond = binary(ExprOp.ULT, x, const(8, 10))
        expr = ite(cond, zext(x, 32), sext(x, 32))
        assert expr.evaluate({"x": 5}) == 5
        assert expr.evaluate({"x": 0xF0}) == 0xFFFFFFF0
        assert trunc(sext(x, 32), 8).evaluate({"x": 0x90}) == 0x90


# ---------------------------------------------------------------------------
# Extended interval analysis
# ---------------------------------------------------------------------------
class TestUnsignedIntervals:
    def test_sub_without_wraparound(self):
        x, y = var(8, "x"), var(8, "y")
        lhs = binary(ExprOp.ADD, zext(x, 32), const(32, 256))  # [256, 511]
        expr = binary(ExprOp.SUB, lhs, zext(y, 32))            # - [0, 255]
        assert unsigned_interval(expr) == (1, 511)

    def test_sub_with_possible_wraparound_is_full(self):
        x, y = var(8, "x"), var(8, "y")
        expr = binary(ExprOp.SUB, zext(x, 32), zext(y, 32))
        assert unsigned_interval(expr) == (0, (1 << 32) - 1)
        # Wraparound really happens: the conservative answer is required.
        assert expr.evaluate({"x": 0, "y": 1}) == (1 << 32) - 1

    def test_xor_bounded_by_operand_bits(self):
        x, y = var(8, "x"), var(8, "y")
        masked = binary(ExprOp.XOR,
                        binary(ExprOp.AND, x, const(8, 0x0F)),
                        binary(ExprOp.AND, y, const(8, 0x03)))
        low, high = unsigned_interval(masked)
        assert (low, high) == (0, 0x0F)
        for vx in (0, 3, 0xAA, 0xFF):
            for vy in (0, 1, 0x55, 0xFF):
                assert low <= masked.evaluate({"x": vx, "y": vy}) <= high

    def test_shl_with_small_shift(self):
        x = var(8, "x")
        expr = binary(ExprOp.SHL,
                      binary(ExprOp.AND, x, const(8, 0x03)), const(8, 2))
        assert unsigned_interval(expr) == (0, 12)

    def test_shl_that_can_overflow_is_full(self):
        x = var(8, "x")
        expr = binary(ExprOp.SHL, x, const(8, 4))
        assert unsigned_interval(expr) == (0, 255)
        # 0x1F << 4 wraps in 8 bits; the interval must cover the wrap.
        assert expr.evaluate({"x": 0x1F}) == 0xF0

    def test_shl_with_shift_at_least_width_is_full(self):
        # Shift amounts are taken modulo the width at evaluation time;
        # the interval cannot assume anything once the bound reaches it.
        x = var(8, "x")
        expr = binary(ExprOp.SHL, binary(ExprOp.AND, x, const(8, 1)),
                      const(8, 9))
        assert unsigned_interval(expr) == (0, 255)
        assert expr.evaluate({"x": 1}) == 2  # 1 << (9 % 8)

    def test_trunc_preserving_and_clipping(self):
        x = var(8, "x")
        small = binary(ExprOp.AND, zext(x, 32), const(32, 0x7F))
        assert unsigned_interval(trunc(small, 8)) == (0, 0x7F)
        wide = binary(ExprOp.ADD, zext(x, 32), const(32, 0x1F0))
        assert unsigned_interval(trunc(wide, 8)) == (0, 255)
        # The clipped case really wraps: 0x100 & 0xFF == 0.
        assert trunc(wide, 8).evaluate({"x": 0x10}) == 0

    def test_sext_of_never_negative_value(self):
        x = var(8, "x")
        expr = sext(binary(ExprOp.AND, x, const(8, 0x0F)), 32)
        assert unsigned_interval(expr) == (0, 0x0F)

    def test_sext_of_always_negative_value(self):
        x = var(8, "x")
        expr = sext(binary(ExprOp.OR, x, const(8, 0x80)), 16)
        low, high = unsigned_interval(expr)
        assert (low, high) == (0xFF80, 0xFFFF)
        assert expr.evaluate({"x": 0}) == 0xFF80
        assert expr.evaluate({"x": 0x7F}) == 0xFFFF

    def test_sext_of_mixed_sign_value_is_full(self):
        x = var(8, "x")
        expr = sext(x, 16)
        assert unsigned_interval(expr) == (0, 0xFFFF)

    def test_intervals_contain_sampled_evaluations(self):
        rng = random.Random(7)
        x, y = var(8, "x"), var(8, "y")
        ops = [ExprOp.ADD, ExprOp.SUB, ExprOp.MUL, ExprOp.AND, ExprOp.OR,
               ExprOp.XOR, ExprOp.SHL, ExprOp.LSHR]
        for _ in range(300):
            op = rng.choice(ops)
            lhs = rng.choice([x, y, const(8, rng.randrange(256)),
                              binary(ExprOp.AND, x,
                                     const(8, rng.randrange(256)))])
            rhs = rng.choice([x, y, const(8, rng.randrange(256))])
            expr = binary(op, lhs, rhs)
            low, high = unsigned_interval(expr)
            for _ in range(8):
                assignment = {"x": rng.randrange(256),
                              "y": rng.randrange(256)}
                assert low <= expr.evaluate(assignment) <= high


# ---------------------------------------------------------------------------
# Incremental constraint groups
# ---------------------------------------------------------------------------
class TestConstraintGroups:
    def _constraints(self):
        x, y, z = var(8, "x"), var(8, "y"), var(8, "z")
        return (binary(ExprOp.ULT, x, const(8, 10)),
                binary(ExprOp.ULT, y, const(8, 20)),
                binary(ExprOp.EQ, binary(ExprOp.ADD, x, z), const(8, 5)))

    def test_disjoint_constraints_form_separate_groups(self):
        cx, cy, _ = self._constraints()
        state = ExecutionState()
        state.add_constraint(cx)
        state.add_constraint(cy)
        groups = state.constraint_groups()
        assert len(groups) == 2
        assert {frozenset(g) for g in groups} == \
            {frozenset([cx]), frozenset([cy])}

    def test_shared_variable_merges_groups(self):
        cx, cy, cxz = self._constraints()
        state = ExecutionState()
        state.add_constraint(cx)
        state.add_constraint(cy)
        state.add_constraint(cxz)  # shares x: merges with cx's group
        groups = state.constraint_groups()
        assert len(groups) == 2
        assert frozenset([cx, cxz]) in {frozenset(g) for g in groups}

    def test_groups_partition_the_constraint_list(self):
        state = ExecutionState()
        for c in self._constraints():
            state.add_constraint(c)
        flattened = [c for group in state.constraint_groups() for c in group]
        assert sorted(map(id, flattened)) == sorted(map(id, state.constraints))
        # Groups are pairwise variable-disjoint.
        groups = state.constraint_groups()
        for i, a in enumerate(groups):
            vars_a = frozenset().union(*(c.variables() for c in a))
            for b in groups[i + 1:]:
                vars_b = frozenset().union(*(c.variables() for c in b))
                assert not (vars_a & vars_b)

    def test_relevant_partition_selects_touching_groups_only(self):
        cx, cy, cxz = self._constraints()
        state = ExecutionState()
        for c in (cx, cy, cxz):
            state.add_constraint(c)
        condition = binary(ExprOp.EQ, var(8, "z"), const(8, 1))
        varfree, groups = state.relevant_partition(condition)
        assert varfree == ()
        assert [set(map(id, group)) for group in groups] == \
            [{id(cx), id(cxz)}]
        unrelated = binary(ExprOp.EQ, var(8, "w"), const(8, 1))
        assert state.relevant_partition(unrelated) == ((), [])

    def test_fork_isolates_groups(self):
        cx, cy, cxz = self._constraints()
        state = ExecutionState()
        state.add_constraint(cx)
        child = state.fork()
        child.add_constraint(cxz)
        assert len(state.constraints) == 1
        assert len(state.constraint_groups()) == 1
        assert len(child.constraints) == 2
        merged = {frozenset(g) for g in child.constraint_groups()}
        assert frozenset([cx, cxz]) in merged

    def test_true_constraints_are_dropped(self):
        state = ExecutionState()
        state.add_constraint(const(1, 1))
        assert state.constraints == []
        assert state.constraint_groups() == []

    def test_variable_free_false_constraint_is_always_relevant(self):
        state = ExecutionState()
        state.add_constraint(const(1, 0))
        condition = binary(ExprOp.EQ, var(8, "q"), const(8, 1))
        varfree, groups = state.relevant_partition(condition)
        assert const(1, 0) in varfree
        assert not Solver().may_be_true_partition(varfree, groups, condition)


# ---------------------------------------------------------------------------
# Equality rewriting (KLEE's --rewrite-equalities)
# ---------------------------------------------------------------------------
_NAIVE = SolverConfig(cache=False, rewrite_equalities=False)


def _naive_check(constraints):
    """The reference verdict: the whole constraint list as one group,
    every switchable solver layer off."""
    return Solver(config=_NAIVE).check_partition((), [tuple(constraints)])


def _random_rewrite_sequence(rng):
    """A constraint sequence rich in equalities over small-domain bytes.
    Domain bounds come first so every prefix stays within the naive
    solver's assignment budget (its single-group search is exponential in
    the number of unbounded variables)."""
    names = ["x", "y", "z"]
    sequence = [binary(ExprOp.ULT, var(8, name), const(8, 16))
                for name in names]
    for _ in range(rng.randrange(2, 7)):
        name = rng.choice(names)
        term = var(8, name)
        if rng.random() < 0.4:
            other = rng.choice(names)
            term = binary(rng.choice([ExprOp.ADD, ExprOp.AND, ExprOp.XOR]),
                          term, var(8, other))
        shape = rng.random()
        if shape < 0.4:
            constraint = binary(ExprOp.EQ, term, const(8, rng.randrange(8)))
        elif shape < 0.55:
            constraint = binary(ExprOp.EQ, var(8, name),
                                var(8, rng.choice(names)))
        else:
            constraint = binary(rng.choice([ExprOp.ULT, ExprOp.ULE,
                                            ExprOp.NE]),
                                term, const(8, rng.randrange(1, 16)))
        sequence.append(constraint)
    return sequence


def _assert_partition_invariants(state):
    """The invariants the group machinery guarantees, rewritten or not:
    the groups flatten to exactly the flat constraint list, and groups are
    pairwise variable-disjoint."""
    groups = state.constraint_groups()
    flattened = [c for group in groups for c in group]
    assert sorted(map(id, flattened)) == sorted(map(id, state.constraints))
    for i, a in enumerate(groups):
        vars_a = frozenset().union(*(c.variables() for c in a)) \
            if a else frozenset()
        for b in groups[i + 1:]:
            vars_b = frozenset().union(*(c.variables() for c in b)) \
                if b else frozenset()
            assert not (vars_a & vars_b)


class TestEqualityRewriting:
    def test_equality_substitutes_through_group(self):
        state = ExecutionState()
        x, y = var(8, "x"), var(8, "y")
        state.add_constraint(binary(ExprOp.ULT, x, const(8, 10)))
        state.add_constraint(binary(ExprOp.ULT, y, x))
        state.add_constraint(binary(ExprOp.EQ, x, const(8, 5)))
        # x < 10 folded to true and dropped; y < x rewritten to y < 5.
        rendered = {c.render() for c in state.constraints}
        assert rendered == {"(ult.1 y:8 5:8)", "(eq.1 x:8 5:8)"}
        assert state.rewrites_applied == 2
        _assert_partition_invariants(state)

    def test_expression_level_equality_is_substituted(self):
        # KLEE rewrites whole left-hand sides, not just variables: pinning
        # (x & 0x0F) must rewrite other constraints containing that node.
        state = ExecutionState()
        x = var(8, "x")
        masked = binary(ExprOp.AND, x, const(8, 0x0F))
        state.add_constraint(binary(ExprOp.ULT, masked, const(8, 9)))
        state.add_constraint(binary(ExprOp.EQ, masked, const(8, 3)))
        rendered = {c.render() for c in state.constraints}
        assert rendered == {"(eq.1 (and.8 x:8 15:8) 3:8)"}
        assert state.rewrites_applied == 1

    def test_later_constraints_are_rewritten_on_arrival(self):
        state = ExecutionState()
        x, y = var(8, "x"), var(8, "y")
        state.add_constraint(binary(ExprOp.EQ, x, const(8, 5)))
        state.add_constraint(binary(ExprOp.ULT, x, const(8, 10)))  # -> true
        assert len(state.constraints) == 1
        state.add_constraint(binary(ExprOp.ULT, y, x))  # -> y < 5
        assert "(ult.1 y:8 5:8)" in {c.render() for c in state.constraints}

    def test_contradicting_equality_folds_to_false(self):
        state = ExecutionState()
        x = var(8, "x")
        state.add_constraint(binary(ExprOp.EQ, x, const(8, 5)))
        state.add_constraint(binary(ExprOp.EQ, x, const(8, 6)))
        # The second equality rewrites to the literal false constraint.
        assert any(c.is_constant and c.value == 0
                   for c in state.constraints)
        condition = binary(ExprOp.ULT, var(8, "q"), const(8, 3))
        assert not Solver().may_be_true_partition(
            *state.relevant_partition(condition), condition)

    def test_group_member_folded_to_false_is_globally_visible(self):
        # The mirror ordering: an *existing* group member rewritten to
        # literal false by an arriving equality must land in the
        # variable-free set exactly like an arriving false, so the
        # contradiction reaches queries on unrelated variables too.
        state = ExecutionState()
        x = var(8, "x")
        state.add_constraint(binary(ExprOp.NE, x, const(8, 5)))
        state.add_constraint(binary(ExprOp.EQ, x, const(8, 5)))
        assert any(c.is_constant and c.value == 0
                   for c in state.constraints)
        condition = binary(ExprOp.ULT, var(8, "q"), const(8, 3))
        assert not Solver().may_be_true_partition(
            *state.relevant_partition(condition), condition)
        _assert_partition_invariants(state)

    def test_join_equality_chain_is_exact_unsat(self):
        """join's path condition compares zero-extended input bytes.  The
        comparisons narrow to the bytes, so the equalities rewrite the
        last constraint to a literal false and the solver tries nothing."""
        byte = [var(8, f"in_{i}") for i in range(4)]

        def compare(op, a, b):
            return binary(op, zext(byte[a], 32), zext(byte[b], 32))

        state = ExecutionState()
        for constraint in (compare(ExprOp.EQ, 2, 0), compare(ExprOp.EQ, 3, 0),
                           compare(ExprOp.EQ, 2, 1),
                           compare(ExprOp.NE, 3, 1)):
            state.add_constraint(constraint)
        solver = Solver()
        result = solver.check_partition(*state.full_partition())
        assert not result.satisfiable and result.exact
        assert solver.stats.assignments_tried == 0

    def test_rewrite_folds_decided_conditions(self):
        state = ExecutionState()
        x = var(8, "x")
        state.add_constraint(binary(ExprOp.EQ, x, const(8, 65)))
        folded = state.rewrite(binary(ExprOp.ULT, x, const(8, 70)))
        assert folded.is_constant and folded.value == 1

    def test_metamorphic_rewritten_groups_are_equisatisfiable(self):
        """For random constraint sequences, the rewritten state and the
        unrewritten state must be equisatisfiable after every addition, and
        a model of the rewritten constraints must satisfy the originals."""
        rng = random.Random(0xE0_2026)
        for round_index in range(150):
            sequence = _random_rewrite_sequence(rng)
            rewritten = ExecutionState(rewrite_equalities=True)
            plain = ExecutionState(rewrite_equalities=False)
            for constraint in sequence:
                rewritten.add_constraint(constraint)
                plain.add_constraint(constraint)
                fast = _naive_check(rewritten.constraints)
                slow = _naive_check(plain.constraints)
                assert fast.exact and slow.exact
                assert fast.satisfiable == slow.satisfiable, \
                    (round_index, [c.render() for c in sequence],
                     [c.render() for c in rewritten.constraints])
                _assert_partition_invariants(rewritten)
            if fast.satisfiable:
                model = Solver(config=_NAIVE).model_for_partition(
                    (), [tuple(rewritten.constraints)])
                variables = set().union(
                    *(c.variables() for c in plain.constraints)) \
                    if plain.constraints else set()
                completed = {name: (model or {}).get(name, 0)
                             for name in variables}
                assert all(c.evaluate(completed) == 1
                           for c in plain.constraints), \
                    (round_index, completed)

    def test_metamorphic_relevant_partition_agree(self):
        """Branch queries through the rewritten state decide like queries
        through the unrewritten state.  ``relevant_partition`` is only
        specified under the executor's invariant that the path condition is
        satisfiable (the executor kills UNSAT states), so infeasible
        sequences are skipped — on those, rewriting legitimately folds the
        contradiction into a globally visible literal false while the
        unrewritten state keeps it group-local."""
        rng = random.Random(0xE1_2026)
        compared = 0
        for _ in range(100):
            sequence = _random_rewrite_sequence(rng)
            rewritten = ExecutionState(rewrite_equalities=True)
            plain = ExecutionState(rewrite_equalities=False)
            for constraint in sequence:
                rewritten.add_constraint(constraint)
                plain.add_constraint(constraint)
            if not _naive_check(plain.constraints).satisfiable:
                continue
            compared += 1
            condition = binary(ExprOp.ULT, var(8, rng.choice("xyz")),
                               const(8, rng.randrange(1, 16)))
            fast = Solver(config=_NAIVE).may_be_true_partition(
                *rewritten.relevant_partition(condition), condition)
            slow = Solver(config=_NAIVE).may_be_true_partition(
                *plain.relevant_partition(condition), condition)
            assert fast == slow, \
                ([c.render() for c in sequence], condition.render())
        assert compared > 30

    def test_invariants_hold_across_fork(self):
        """Forked rewritten states keep the partition invariants and do not
        leak rewrites back into the parent."""
        rng = random.Random(0xE2_2026)
        for _ in range(60):
            sequence = _random_rewrite_sequence(rng)
            split = len(sequence) // 2
            state = ExecutionState(rewrite_equalities=True)
            for constraint in sequence[:split]:
                state.add_constraint(constraint)
            parent_constraints = list(state.constraints)
            child = state.fork()
            for constraint in sequence[split:]:
                child.add_constraint(constraint)
            _assert_partition_invariants(state)
            _assert_partition_invariants(child)
            assert state.constraints == parent_constraints
            # The child's path condition is equisatisfiable with the whole
            # unrewritten sequence.
            plain = ExecutionState(rewrite_equalities=False)
            for constraint in sequence:
                plain.add_constraint(constraint)
            fast = _naive_check(child.constraints)
            slow = _naive_check(plain.constraints)
            assert fast.satisfiable == slow.satisfiable

    def test_rewrites_counted_into_shared_solver_stats(self):
        stats = SolverStats()
        state = ExecutionState(rewrite_equalities=True, solver_stats=stats)
        x = var(8, "x")
        state.add_constraint(binary(ExprOp.ULT, x, const(8, 10)))
        state.add_constraint(binary(ExprOp.EQ, x, const(8, 5)))
        child = state.fork()
        child.add_constraint(binary(ExprOp.ULE, x, const(8, 9)))  # -> true
        assert state.rewrites_applied == 1
        assert child.rewrites_applied == 2  # inherits the parent's count
        assert stats.equality_rewrites == 2  # shared across the fork

    def test_deep_chains_do_not_overflow_the_expression_walks(self):
        # variables(), unsigned_interval(), substitute() and
        # bounded_interval() must all be iterative like Expr.evaluate: a
        # loop accumulating on symbolic data builds dependent chains far
        # deeper than Python's recursion limit, and nothing warms the
        # per-node memos first when only the final value is branched on.
        x, y = var(8, "deep_x"), var(8, "deep_y")
        expr = x
        for _ in range(3000):
            expr = binary(ExprOp.ADD, expr, y)
        condition = binary(ExprOp.ULT, expr, const(8, 10))
        assert condition.variables() == frozenset({"deep_x", "deep_y"})
        assert unsigned_interval(condition) == (0, 1)
        rewritten = substitute(condition, {y: const(8, 0)})
        assert rewritten.variables() == frozenset({"deep_x"})
        low, high = bounded_interval(condition,
                                     {"deep_x": (0, 5), "deep_y": (0, 5)})
        assert (low, high) == (0, 1)

    def test_accumulation_loop_program_explores_end_to_end(self):
        # The end-to-end shape of the case above: 200 loop iterations of
        # symbolic accumulation produce a cold ~600-node-deep constraint
        # at the only branch; the run must complete, not RecursionError.
        module = compile_to_ir("""
            int main(unsigned char *input, int len) {
                unsigned char acc = 0;
                for (int i = 0; i < 200; i++) { acc = acc + input[0]; }
                if (acc == 0) { return 1; }
                return 0;
            }
        """)
        report = explore(module, 1)
        assert report.stats.total_paths == 2
        assert {p.return_value for p in report.paths} == {0, 1}

    def test_substitute_rebuilds_through_smart_constructors(self):
        x, y = var(8, "x"), var(8, "y")
        expr = binary(ExprOp.ULT, binary(ExprOp.ADD, x, y), const(8, 50))
        result = substitute(expr, {x: const(8, 5)})
        assert result.render() == "(ult.1 (add.8 y:8 5:8) 50:8)"
        untouched = binary(ExprOp.ULT, y, const(8, 3))
        assert substitute(untouched, {x: const(8, 5)}) is untouched


# ---------------------------------------------------------------------------
# Branch-and-prune interval solving
# ---------------------------------------------------------------------------
class TestBoundedIntervals:
    def test_variable_bounds_are_respected(self):
        w = var(32, "w")
        expr = binary(ExprOp.ADD, w, const(32, 10))
        assert bounded_interval(expr, {"w": (0, 5)}) == (10, 15)
        assert bounded_interval(expr, {}) == (0, (1 << 32) - 1)

    def test_comparison_decided_under_bounds(self):
        w = var(32, "w")
        eq = binary(ExprOp.EQ, w, const(32, 1000))
        assert bounded_interval(eq, {"w": (0, 500)}) == (0, 0)
        assert bounded_interval(eq, {"w": (1000, 1000)}) == (1, 1)
        assert bounded_interval(eq, {"w": (900, 1100)}) == (0, 1)

    def test_signed_comparison_decided_on_sign_pure_bounds(self):
        w = var(32, "w")
        slt = binary(ExprOp.SLT, w, const(32, 100))
        assert bounded_interval(slt, {"w": (0, 50)}) == (1, 1)
        assert bounded_interval(slt, {"w": (200, 300)}) == (0, 0)
        # Negative values (top half) are signed-less-than 100.
        assert bounded_interval(slt, {"w": (1 << 31, (1 << 32) - 1)}) == (1, 1)
        # A range crossing the sign boundary stays undecided.
        assert bounded_interval(slt, {"w": (0, (1 << 32) - 1)}) == (0, 1)

    def test_bounded_intervals_contain_sampled_evaluations(self):
        rng = random.Random(11)
        w, v = var(32, "w"), var(8, "v")
        ops = [ExprOp.ADD, ExprOp.SUB, ExprOp.MUL, ExprOp.AND, ExprOp.OR,
               ExprOp.XOR, ExprOp.LSHR]
        for _ in range(200):
            low = rng.randrange(1 << 16)
            high = low + rng.randrange(1 << 12)
            expr = binary(rng.choice(ops),
                          rng.choice([w, zext(v, 32),
                                      const(32, rng.randrange(1 << 16))]),
                          rng.choice([w, const(32, rng.randrange(1 << 10))]))
            bounds = {"w": (low, high), "v": (0, 255)}
            ivl_low, ivl_high = bounded_interval(expr, bounds)
            for _ in range(8):
                assignment = {"w": rng.randrange(low, high + 1),
                              "v": rng.randrange(256)}
                value = expr.evaluate(assignment)
                assert ivl_low <= value <= ivl_high


#: ``read_value()`` is an unknown external, so the executor havocs it with
#: a fresh 32-bit symbolic variable.  Two of the branches are infeasible
#: under the path condition; a search that is not exact on wide variables
#: can only answer "maybe satisfiable" and explores them.
WIDE_VALUE_PROGRAM = r"""
int read_value();

int main(unsigned char *input, int len) {
    int n = read_value();
    int hits = 0;
    if (n < 0) { return 0; }
    if (n > 1000000) { return 1; }
    if (n > 2000000) { hits = 1; }      /* infeasible: n <= 1000000 */
    if (n * 2 < 0) { hits = hits + 2; } /* infeasible: 2n <= 2000000 */
    if (input[0] == 'x') { hits = hits + 4; }
    return hits;
}
"""


class TestBranchAndPrune:
    def test_wide_equality_is_exact_with_model(self):
        solver = Solver()
        w = var(32, "wide_bnp")
        result = solver.check_partition(
            *as_partition([binary(ExprOp.EQ, w, const(32, 123456))]))
        assert result.satisfiable and result.exact
        assert result.model == {"wide_bnp": 123456}
        assert solver.stats.prune_splits > 0

    def test_wide_contradiction_is_proved_unsat(self):
        solver = Solver()
        w = var(32, "wide_bnp2")
        result = solver.check_partition(*as_partition([
            binary(ExprOp.ULT, w, const(32, 1000)),
            binary(ExprOp.ULT, const(32, 2000), w),
        ]))
        assert not result.satisfiable
        assert result.exact

    def test_mixed_width_group_is_solved(self):
        solver = Solver()
        w, b = var(32, "wide_bnp3"), var(8, "byte_bnp3")
        constraints = [
            binary(ExprOp.EQ, w, binary(ExprOp.ADD, zext(b, 32),
                                        const(32, 100000))),
            binary(ExprOp.ULT, b, const(8, 10)),
        ]
        result = solver.check_partition(*as_partition(constraints))
        assert result.satisfiable and result.exact
        model = solver.model_for_partition(*as_partition(constraints))
        assert all(c.evaluate(model) == 1 for c in constraints)

    def test_width_above_sixteen_bits_goes_to_branch_and_prune(self):
        """Enumeration covers variables of up to 16 bits; one bit wider
        and the group is always decided by branch-and-prune, exactly."""
        narrow, wide = Solver(), Solver()
        narrow_result = narrow.check_partition(*as_partition(
            [binary(ExprOp.EQ, var(16, "route_n"), const(16, 40000))]))
        wide_result = wide.check_partition(*as_partition(
            [binary(ExprOp.EQ, var(17, "route_w"), const(17, 70000))]))
        assert narrow_result.satisfiable and narrow_result.exact
        assert wide_result.satisfiable and wide_result.exact
        assert narrow_result.model == {"route_n": 40000}
        assert wide_result.model == {"route_w": 70000}
        assert narrow.stats.csp_searches == wide.stats.csp_searches == 1
        assert narrow.stats.prune_splits == 0
        assert wide.stats.prune_splits > 0

    def test_signed_wide_branches_are_decided(self):
        solver = Solver()
        w = var(32, "wide_bnp5")
        negative = binary(ExprOp.SLT, w, const(32, 0))
        positive = binary(ExprOp.SLT, const(32, 0), w)
        result = solver.check_partition(*as_partition([negative, positive]))
        assert not result.satisfiable and result.exact
        sat = solver.check_partition(*as_partition([negative]))
        assert sat.satisfiable and sat.exact
        assert sat.model is not None and \
            negative.evaluate(sat.model) == 1

    def test_wide_value_exploration_is_exact_and_pruned(self):
        """A whole exploration over a havocked 32-bit value: every query
        is decided exactly, and the two infeasible branches are pruned, so
        only the four feasible outcomes (the early exits plus the
        ``input[0]`` fork) remain."""
        report = explore(compile_to_ir(WIDE_VALUE_PROGRAM), 2,
                         limits=SymexLimits(timeout_seconds=60.0))
        stats = report.solver_stats
        assert stats.unknown_results == 0, "wide queries must be exact"
        assert stats.prune_splits > 0
        assert report.stats.total_paths == 4
        assert {path.return_value for path in report.paths} == {0, 1, 4}


class TestSeededSplits:
    """Branch-and-prune split points bisect toward constraint constants
    (ROADMAP follow-on): the satisfying band of an equality starts at such
    a constant, so seeded splits isolate it in O(1) instead of walking
    O(log range) midpoints."""

    def _equality_heavy_query(self):
        w = var(32, "seeded_w")
        m = var(32, "seeded_m")
        return [
            binary(ExprOp.EQ, w, const(32, 123456)),
            binary(ExprOp.EQ, m, const(32, 987654)),
            binary(ExprOp.ULT, w, m),
        ]

    def test_fewer_prune_splits_on_equality_heavy_wide_query(self):
        solver = Solver()
        result = solver.check_partition(
            *as_partition(self._equality_heavy_query()))
        assert result.satisfiable and result.exact
        # The win is structural, not marginal: each equality resolves in a
        # couple of splits.  Midpoint bisection, which descends once per
        # constant, took 53 splits on this query.
        assert solver.stats.prune_splits == 8

    def test_seeded_splits_give_exact_answers(self):
        """Split-point choice is a heuristic: it must still reach exact
        answers and valid models."""
        cases = [
            [binary(ExprOp.EQ, var(32, "sag_a"), const(32, 70000))],
            [binary(ExprOp.ULT, var(32, "sag_b"), const(32, 3)),
             binary(ExprOp.ULT, const(32, 100_000), var(32, "sag_b"))],
            [binary(ExprOp.ULT, const(32, 5), var(32, "sag_c")),
             binary(ExprOp.ULT, var(32, "sag_c"), const(32, 1_000_000))],
        ]
        expected = [True, False, True]
        for constraints, satisfiable in zip(cases, expected):
            result = Solver().check_partition(*as_partition(constraints))
            assert result.exact
            assert result.satisfiable == satisfiable
            if result.satisfiable:
                assert all(c.evaluate(result.model) == 1
                           for c in constraints)

    def test_unsat_equality_pair_proved_quickly(self):
        solver = Solver()
        w = var(32, "seeded_unsat")
        result = solver.check_partition(*as_partition([
            binary(ExprOp.EQ, w, const(32, 55555)),
            binary(ExprOp.EQ, w, const(32, 66666)),
        ]))
        assert not result.satisfiable and result.exact
        assert solver.stats.prune_splits <= 8


# ---------------------------------------------------------------------------
# Copy-on-write forking
# ---------------------------------------------------------------------------
class TestCopyOnWrite:
    def test_memory_shares_until_either_side_writes(self):
        memory = SymbolicMemory()
        address = memory.allocate(2, "slot")
        memory.store_concrete_bytes(address, b"\x01\x02")
        clone = memory.fork()
        assert clone.bytes is memory.bytes  # shared until a write
        memory.store_concrete_bytes(address, b"\x09\x02")  # parent writes
        assert clone.load(address, 1).value == 1
        assert memory.load(address, 1).value == 9
        clone.store_concrete_bytes(address + 1, b"\x07")   # child writes
        assert memory.load(address + 1, 1).value == 2
        assert clone.load(address + 1, 1).value == 7

    def test_allocation_after_fork_is_private(self):
        memory = SymbolicMemory()
        memory.allocate(4, "shared")
        clone = memory.fork()
        clone.allocate(4, "child_only")
        assert len(memory.objects) == 1
        assert len(clone.objects) == 2

    def test_stack_frame_values_cow(self):
        module = compile_to_ir("int f() { return 1; }")
        function = module.get_function("f")
        frame = StackFrame(function)
        frame.bind(1, const(8, 10))
        clone = frame.fork()
        assert clone.values is frame.values
        clone.bind(2, const(8, 20))
        assert 2 not in frame.values
        frame.bind(3, const(8, 30))
        assert 3 not in clone.values
        assert frame.values[1] is clone.values[1]

    def test_state_fork_preserves_execution_results(self):
        # End to end: forked exploration still yields the same path set as
        # the seed engine's eager-copy semantics.
        module = compile_to_ir("""
            int main(unsigned char *input, int len) {
                int total = 0;
                if (input[0] == 'a') { total += 1; }
                if (input[1] == 'b') { total += 2; }
                if (input[0] == 'a') { total += 4; }   /* re-test: no fork */
                return total;
            }
        """)
        report = explore(module, 2)
        assert report.stats.total_paths == 4
        returns = {p.return_value for p in report.paths}
        assert returns == {0, 5, 2, 7}


# ---------------------------------------------------------------------------
# Solver caches
# ---------------------------------------------------------------------------
class TestSolverCaches:
    def test_model_reuse_across_related_queries(self):
        solver = Solver()
        x = var(8, "x")
        first = binary(ExprOp.ULT, x, const(8, 100))
        solver.check_partition(*as_partition([first]))
        before = solver.stats.csp_searches
        # A superset query whose extra constraint holds under the cached
        # model: answered by model reuse, no new search.
        second = binary(ExprOp.ULT, x, const(8, 200))
        result = solver.check_partition(*as_partition([first, second]))
        assert result.satisfiable
        assert solver.stats.model_cache_hits >= 1
        assert solver.stats.csp_searches == before

    def test_equal_subset_models_take_one_trial(self):
        """Groups the index answered are recorded with the model they
        reused, so one model can sit under many subsets.  It is tried
        once, leaving the other trials for distinct models."""
        x = var(8, "dup_x")
        shared = SharedSolverCaches()
        for value in range(1, 10):
            model = {"dup_x": 100 if value == 9 else 200}
            shared.remember([binary(ExprOp.NE, x, const(8, value))],
                            SolverResult(True, model))
        query = [binary(ExprOp.NE, x, const(8, value))
                 for value in range(1, 10)]
        query += [binary(ExprOp.ULT, const(8, 50), x),
                  binary(ExprOp.ULT, x, const(8, 150))]
        solver = Solver(shared=shared)
        result = solver.check_partition(*as_partition(query))
        assert result.satisfiable and result.model == {"dup_x": 100}
        assert solver.stats.ubtree_hits == 1
        assert solver.stats.csp_searches == 0

    def test_get_model_does_not_resolve_decided_queries(self):
        solver = Solver()
        x = var(8, "x")
        constraints = [binary(ExprOp.EQ, x, const(8, 65))]
        assert solver.check_partition(*as_partition(constraints)).satisfiable
        searches = solver.stats.csp_searches
        model = solver.model_for_partition(*as_partition(constraints))
        assert model == {"x": 65}
        assert solver.stats.csp_searches == searches

    def test_get_model_covers_fast_path_variables(self):
        solver = Solver()
        x, y = var(8, "x"), var(8, "y")
        tautology = binary(ExprOp.ULE, zext(x, 32), const(32, 300))
        constraints = [tautology, binary(ExprOp.ULT, y, const(8, 5))]
        model = solver.model_for_partition(*as_partition(constraints))
        assert model is not None
        assert set(model) == {"x", "y"}
        assert all(c.evaluate(model) == 1 for c in constraints)

    def test_check_branch_gets_unsat_side_free(self):
        solver = Solver()
        x = var(8, "x")
        pinned = [binary(ExprOp.EQ, x, const(8, 5))]
        condition = binary(ExprOp.EQ, x, const(8, 7))
        queries = solver.stats.queries
        can_true, can_false = solver.check_branch_partition(
            *as_partition(pinned), condition)
        assert (can_true, can_false) == (False, True)
        assert solver.stats.branch_sides_free == 1
        assert solver.stats.queries == queries + 1  # single query for both

    def test_check_branch_two_sided(self):
        solver = Solver()
        x = var(8, "x")
        condition = binary(ExprOp.ULT, x, const(8, 128))
        assert solver.check_branch_partition((), [], condition) == \
            (True, True)
        assert solver.check_branch_partition((), [], const(1, 1)) == \
            (True, False)
        assert solver.check_branch_partition((), [], const(1, 0)) == \
            (False, True)

    def test_cache_switch_off_leaves_every_cache_empty(self):
        """``SolverConfig.cache`` gates every caching layer: the query
        cache, the table of group results (canonical concretization
        models included) and both UBTree indices."""
        solver = Solver(config=SolverConfig(cache=False))
        x, y = var(8, "x"), var(8, "y")
        queries = [[binary(ExprOp.ULT, x, const(8, 9))],
                   [binary(ExprOp.EQ, x, const(8, 1)),
                    binary(ExprOp.EQ, x, const(8, 2))],
                   [binary(ExprOp.ULT, x, y)]]
        for query in queries * 2:
            partition = as_partition(query)
            solver.check_partition(*partition)
            solver.model_for_partition(*partition)
            solver.concretization_model(*partition)
        stats = solver.stats
        assert stats.cache_hits == stats.ubtree_hits == 0
        assert stats.model_cache_hits == 0
        assert solver._cache == {}
        shared = solver._shared
        assert shared.results == {} and shared.canonical == set()
        assert len(shared.sat_index) == len(shared.unsat_index) == 0

    def test_concretization_reads_the_result_a_search_recorded(self):
        """A group ``check_partition`` searched is recorded as canonical,
        so ``concretization_model`` reads its model instead of searching
        again, and returns what a cold solver's concretization does."""
        x, y = var(8, "conc_x"), var(8, "conc_y")
        group = [binary(ExprOp.ULT, const(8, 40), x),
                 binary(ExprOp.ULT, x, y)]
        solver = Solver()
        assert solver.check_partition(*as_partition(group)).satisfiable
        searches = solver.stats.csp_searches
        model = solver.concretization_model(*as_partition(group))
        assert solver.stats.csp_searches == searches
        assert model == Solver().concretization_model(*as_partition(group))

    def test_concretization_never_hands_out_a_reused_model(self):
        """A group the index answered keeps the model it reused, which is
        not the one a search finds; concretization searches it, every
        time, and hands out the search's model."""
        x = var(8, "reuse_x")
        group = [binary(ExprOp.ULT, const(8, 3), x)]
        superset = group + [binary(ExprOp.ULT, const(8, 100), x)]
        solver = Solver()
        assert solver.check_partition(*as_partition(superset)).satisfiable
        reused = solver.check_partition(*as_partition(group))
        assert reused.model == {"reuse_x": 101}
        cold = Solver().concretization_model(*as_partition(group))
        assert cold == {"reuse_x": 4}
        for _ in range(2):
            assert solver.concretization_model(*as_partition(group)) == cold
        assert solver.check_partition(*as_partition(group)).model == \
            reused.model

    def test_concurrent_remember_records_each_group_once(self):
        """Four threads record the same 500 groups into one table, in the
        same order, under a short switch interval, with the table's lookup
        yielding the interpreter lock: every group is added exactly once
        and indexed once.  A check-then-act outside the table's lock adds
        some group more than once."""

        class YieldingDict(dict):
            def get(self, key, default=None):
                value = super().get(key, default)
                time.sleep(0)  # let another thread run between check and act
                return value

        groups = [([binary(ExprOp.ULT, var(8, f"race_{n}"),
                           const(8, 1 + n % 200))],
                   SolverResult(True, {f"race_{n}": 0}))
                  for n in range(500)]
        shared = SharedSolverCaches()
        shared.results = YieldingDict()
        added = []
        start = threading.Barrier(4)

        def record():
            start.wait(timeout=30)
            added.append(sum(shared.remember(group, result)
                             for group, result in groups))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=record) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sum(added) == len(groups)
        assert len(shared.results) == len(shared.sat_index) == len(groups)

    def test_unary_domains_enumerated_once(self):
        solver = Solver()
        x = var(8, "x")
        constraint = binary(ExprOp.ULT, binary(ExprOp.AND, x, const(8, 0x3F)),
                            const(8, 9))
        solver.check_partition(*as_partition([constraint]))
        tried = solver.stats.assignments_tried
        # Same unary constraint in a different (uncachable by query key)
        # conjunction: the satisfying set is reused, no re-enumeration.
        # The allowance covers the new variable's one-off unary enumeration
        # (256) plus the CSP probes over its pruned domain (3 values).
        other = binary(ExprOp.ULT, var(8, "other"), const(8, 3))
        solver.check_partition(*as_partition([constraint, other]))
        assert solver.stats.assignments_tried <= tried + 260

    def test_wide_variable_equality_solved_via_constant_seeding(self):
        # >16-bit variables get sparse candidate domains; constants from the
        # constraints must be seeded so plain equalities still find models.
        solver = Solver()
        x = var(32, "wide")
        constraints = [binary(ExprOp.EQ, x, const(32, 1000))]
        result = solver.check_partition(*as_partition(constraints))
        assert result.satisfiable
        assert solver.model_for_partition(*as_partition(constraints)) == \
            {"wide": 1000}

    def test_wide_variable_never_yields_false_unsat_proof(self):
        # The sparse domain is not exhaustive, so a failed search must come
        # back "maybe satisfiable" (inexact), never an exact UNSAT that
        # check_branch_partition would treat as a proof and use to prune
        # paths.
        solver = Solver()
        x = var(32, "wide2")
        contradiction_free = [
            binary(ExprOp.EQ, binary(ExprOp.MUL, x, x), const(32, 12345)),
        ]
        result = solver.check_partition(*as_partition(contradiction_free))
        assert result.satisfiable or not result.exact

    def test_get_model_returns_no_witness_on_inexact_answers(self):
        # An inexact ("maybe satisfiable") answer may carry a partial model
        # from the groups that did decide; model_for_partition must not
        # zero-complete it into a fabricated witness that violates the
        # undecided group.
        solver = Solver(config=SolverConfig(max_assignments=10))
        x, y = var(32, "inexact_x"), var(8, "inexact_y")
        constraints = [
            binary(ExprOp.EQ, binary(ExprOp.MUL, x, x), const(32, 3)),
            binary(ExprOp.EQ, y, const(8, 5)),
        ]
        result = solver.check_partition(*as_partition(constraints))
        assert result.satisfiable and not result.exact
        assert solver.model_for_partition(
            *as_partition(constraints)) is None

    def test_cached_models_are_not_aliased_by_callers(self):
        solver = Solver()
        x = var(8, "x")
        constraints = [binary(ExprOp.EQ, x, const(8, 65))]
        model = solver.model_for_partition(*as_partition(constraints))
        model["x"] = 0  # caller mutates its copy
        assert solver.model_for_partition(
            *as_partition(constraints)) == {"x": 65}


# ---------------------------------------------------------------------------
# The cache stack on a whole exploration
# ---------------------------------------------------------------------------
#: Four input-dependent branches per byte: many small, overlapping
#: conjunctions re-asked across sibling states, the mix the query cache,
#: the model reuse and branch sharing are built for.
BRANCH_HEAVY_PROGRAM = r"""
int main(unsigned char *input, int len) {
    int acc = 0;
    for (int i = 0; i < len; i++) {
        unsigned char c = input[i];
        if (c > 'a') { acc += 1; }
        if (c > 'm') { acc += 2; }
        if (c == 'z') { acc += 4; }
        if ((c & 0x0F) == 3) { acc += 8; }
    }
    if (acc > 6) { return 1; }
    return acc;
}
"""


def _explore_branch_heavy(solver=None):
    return explore(compile_to_ir(BRANCH_HEAVY_PROGRAM), 3,
                   limits=SymexLimits(timeout_seconds=60.0), solver=solver)


class TestBranchHeavyExploration:
    """The branch-heavy program at 3 symbolic bytes (343 paths).  The
    engine is deterministic, so these floors are load-independent."""

    #: ``assignments_tried`` on this exploration before the UBTree index,
    #: equality rewriting and branch-and-prune, when model reuse scanned
    #: a linear cache; the current stack tries 1,074.
    LINEAR_SCAN_ASSIGNMENTS = 5395

    @pytest.fixture(scope="class")
    def report(self):
        return _explore_branch_heavy()

    def test_caches_decide_most_queries_without_a_search(self, report):
        stats = report.solver_stats
        assert report.stats.total_paths >= 100
        assert 1.0 - stats.csp_searches / max(1, stats.queries) >= 0.90
        assert stats.cache_hits > 0
        assert stats.model_cache_hits > 0
        assert stats.ubtree_hits > 0
        assert stats.assignments_tried < self.LINEAR_SCAN_ASSIGNMENTS

    def test_branch_sharing_asks_less_than_once_per_branch(self, report):
        stats = report.solver_stats
        assert stats.queries / report.stats.branches_encountered < 1.0
        assert stats.branch_sides_free > 0

    def test_caching_does_strictly_less_work_than_no_caching(self, report):
        """Same exploration with every cache off: identical paths and
        branches, strictly more tried assignments and CSP searches."""
        naive = _explore_branch_heavy(Solver(config=SolverConfig(cache=False)))
        assert report.stats.total_paths == naive.stats.total_paths
        assert report.stats.branches_encountered == \
            naive.stats.branches_encountered
        assert report.solver_stats.assignments_tried < \
            naive.solver_stats.assignments_tried
        assert report.solver_stats.csp_searches < \
            naive.solver_stats.csp_searches


# ---------------------------------------------------------------------------
# Work floors of if-converted programs
# ---------------------------------------------------------------------------
class TestIfConvertedWorkFloors:
    """Registry builds whose queries are if-conversion chains or a literal
    next to its negation: literal propagation and value classes decide
    them, so each run finishes within a path and instruction budget, with
    no unknown answer and a small search.  The budgets count work, not
    time, and a solver budget of 20,000 assignments per search turns a
    regression into an unknown answer instead of a long run."""

    #: (program, level) -> paths at the program's default input size.
    PATHS = {("basename", "OVERIFY"): 5, ("cat", "OVERIFY"): 5,
             ("dirname", "OVERIFY"): 11, ("echo_args", "OVERIFY"): 9,
             ("expand", "OVERIFY"): 55, ("tail", "OVERIFY"): 31,
             ("head", "O0"): 15}

    @pytest.mark.parametrize("program, level", sorted(PATHS),
                             ids=lambda value: value)
    def test_finishes_with_a_small_search(self, program, level):
        from repro.pipelines import CompileOptions, OptLevel, compile_source
        from repro.workloads import get_workload

        workload = get_workload(program)
        module = compile_source(
            workload.source,
            CompileOptions(level=getattr(OptLevel, level))).module
        solver = Solver(config=SolverConfig(max_assignments=20_000))
        report = explore(module, workload.default_input_bytes, solver=solver,
                         limits=SymexLimits(max_paths=1_000,
                                            max_instructions=200_000,
                                            timeout_seconds=600.0))
        assert report.stats.termination_reason == ""
        assert report.stats.total_paths == self.PATHS[program, level]
        assert report.solver_stats.unknown_results == 0
        assert report.solver_stats.assignments_tried < 20_000


# ---------------------------------------------------------------------------
# Exact path counts of byte-equality chains
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("level", ["O0", "OVERIFY"])
def test_join_reports_only_feasible_paths(level):
    """join compares zero-extended input bytes along equality chains.  The
    comparisons narrow to the bytes, equality rewriting decides every
    infeasible chain, and both levels report the same 25 paths with no
    "maybe" answer."""
    from repro.pipelines import CompileOptions, OptLevel, compile_source
    from repro.workloads import get_workload

    workload = get_workload("join")
    module = compile_source(
        workload.source, CompileOptions(level=getattr(OptLevel, level))).module
    report = explore(module, workload.default_input_bytes,
                     limits=SymexLimits(max_paths=1_000,
                                        max_instructions=200_000,
                                        timeout_seconds=600.0))
    assert report.stats.termination_reason == ""
    assert report.stats.total_paths == 25
    assert report.solver_stats.unknown_results == 0
