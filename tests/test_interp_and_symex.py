"""Tests for the concrete interpreter and the symbolic execution engine
(expressions, solver, memory, executor)."""

import pytest

from conftest import as_partition
from repro.frontend import compile_to_ir
from repro.interp import ErrorKind, Interpreter, Memory, ProgramError, run_module
from repro.pipelines import CompileOptions, OptLevel, compile_source
from repro.symex import (
    BFSSearcher, DFSSearcher, ExecutionState, ExprOp, RandomSearcher, Solver,
    SymbolicMemory, SymexLimits, binary, concat_bytes, const, explore,
    extract_byte, ite, not_expr, sext, trunc, unsigned_interval, var, zext,
)


# ---------------------------------------------------------------------------
# Concrete interpreter
# ---------------------------------------------------------------------------
class TestInterpreter:
    def test_simple_arithmetic(self):
        module = compile_to_ir("int f(int a, int b) { return a * b + 1; }")
        assert Interpreter(module).run_function("f", [6, 7]).return_value == 43

    def test_memory_and_buffers(self):
        module = compile_to_ir("""
            int sum(unsigned char *data, int n) {
                int total = 0;
                for (int i = 0; i < n; i++) { total += data[i]; }
                return total;
            }
        """)
        interp = Interpreter(module)
        address = interp.allocate_buffer(bytes([1, 2, 3, 4]))
        assert interp.run_function("sum", [address, 4]).return_value == 10

    def test_run_program_entry_convention(self):
        module = compile_to_ir("""
            int main(unsigned char *input, int len) {
                int total = 0;
                for (int i = 0; i < len; i++) { total += input[i]; }
                return total;
            }
        """)
        result = run_module(module, b"abc")
        assert result.return_value == ord("a") + ord("b") + ord("c")

    def test_null_dereference_detected(self):
        module = compile_to_ir("int f(int *p) { return *p; }")
        result = Interpreter(module).run_function("f", [0])
        assert result.crashed
        assert result.error.kind is ErrorKind.NULL_DEREFERENCE

    def test_out_of_bounds_detected(self):
        module = compile_to_ir("""
            unsigned char table[4];
            int f(int i) { return table[i]; }
        """)
        result = Interpreter(module).run_function("f", [100])
        assert result.crashed
        assert result.error.kind is ErrorKind.OUT_OF_BOUNDS

    def test_division_by_zero_detected(self):
        module = compile_to_ir("int f(int a, int b) { return a / b; }")
        result = Interpreter(module).run_function("f", [10, 0])
        assert result.crashed
        assert result.error.kind is ErrorKind.DIVISION_BY_ZERO

    def test_check_fail_intrinsic(self):
        module = compile_to_ir("""
            extern void __overify_check_fail(void);
            int f(int a) { if (a > 5) { __overify_check_fail(); } return a; }
        """)
        ok = Interpreter(module).run_function("f", [3])
        assert not ok.crashed and ok.return_value == 3
        bad = Interpreter(module).run_function("f", [7])
        assert bad.crashed and bad.error.kind is ErrorKind.CHECK_FAILURE

    def test_step_limit_stops_infinite_loop(self):
        module = compile_to_ir("int f() { while (1) { } return 0; }")
        result = Interpreter(module, max_steps=1_000).run_function("f", [])
        assert result.crashed
        assert result.error.kind is ErrorKind.STEP_LIMIT

    def test_stack_overflow_detected(self):
        module = compile_to_ir("int f(int n) { return f(n + 1); }")
        result = Interpreter(module, max_call_depth=32).run_function("f", [0])
        assert result.crashed
        assert result.error.kind is ErrorKind.STACK_OVERFLOW

    def test_execution_stats_collected(self):
        module = compile_to_ir(
            "int f(int n) { int t = 0; for (int i = 0; i < n; i++) t += i;"
            " return t; }")
        interp = Interpreter(module)
        result = interp.run_function("f", [10])
        assert result.stats.instructions_executed > 50
        assert result.stats.branches_executed > 10

    def test_read_only_global_write_detected(self):
        module = compile_to_ir("""
            int f() {
                unsigned char *s = (unsigned char *)"abc";
                s[0] = 'x';
                return s[0];
            }
        """)
        result = Interpreter(module).run_function("f", [])
        assert result.crashed
        assert result.error.kind is ErrorKind.OUT_OF_BOUNDS

    def test_memory_objects_padded(self):
        memory = Memory()
        a = memory.allocate(4, "a")
        b = memory.allocate(4, "b")
        assert b - a >= 4
        memory.store_int(a, 0x11223344, 4)
        assert memory.load_int(a, 4) == 0x11223344
        with pytest.raises(ProgramError):
            memory.load_bytes(a + 4, 4)


# ---------------------------------------------------------------------------
# Symbolic expressions
# ---------------------------------------------------------------------------
class TestExpressions:
    def test_constant_folding(self):
        assert binary(ExprOp.ADD, const(8, 250), const(8, 10)).value == 4
        assert binary(ExprOp.SLT, const(8, 0x80), const(8, 1)).value == 1
        assert binary(ExprOp.ULT, const(8, 0x80), const(8, 1)).value == 0

    def test_identity_simplifications(self):
        x = var(8, "x")
        assert binary(ExprOp.ADD, x, const(8, 0)) is x
        assert binary(ExprOp.MUL, x, const(8, 1)) is x
        assert binary(ExprOp.AND, x, const(8, 0)).value == 0
        assert binary(ExprOp.XOR, x, x).value == 0
        assert binary(ExprOp.EQ, x, x).is_true

    def test_not_of_comparison_flips_predicate(self):
        x = var(8, "x")
        eq = binary(ExprOp.EQ, x, const(8, 3))
        assert not_expr(eq).op is ExprOp.NE
        assert not_expr(not_expr(eq)) == eq

    def test_zext_collapse_and_narrowing(self):
        x = var(8, "x")
        wide = zext(x, 32)
        assert zext(wide, 64).operands[0] is x
        assert trunc(wide, 8) is x
        # Comparisons against zero narrow back to the original variable.
        cmp = binary(ExprOp.NE, wide, const(32, 0))
        assert x in cmp.operands or cmp.operands[0] is x

    def test_equality_of_equal_width_zero_extensions_narrows(self):
        x, y, h = var(8, "x"), var(8, "y"), var(16, "h")
        for op in (ExprOp.EQ, ExprOp.NE):
            narrowed = binary(op, zext(x, 32), zext(y, 32))
            assert narrowed is binary(op, x, y)
            assert narrowed.operands == (x, y)
        assert binary(ExprOp.EQ, zext(x, 32), zext(x, 32)).is_true
        # Different inner widths, or an ordered comparison, stay wide.
        mixed = binary(ExprOp.EQ, zext(x, 32), zext(h, 32))
        assert mixed.operands == (zext(x, 32), zext(h, 32))
        ordered = binary(ExprOp.ULT, zext(x, 32), zext(y, 32))
        assert ordered.operands == (zext(x, 32), zext(y, 32))

    def test_shift_past_a_zero_extension_folds_to_zero(self):
        x = var(8, "x")
        wide = zext(x, 32)
        assert binary(ExprOp.LSHR, wide, const(32, 8)).value == 0
        assert binary(ExprOp.LSHR, wide, const(32, 40)).value == 0
        assert binary(ExprOp.LSHR, wide, const(32, 7)).op is ExprOp.LSHR
        # A stored byte read back through the memory model's byte
        # reassembly is the byte again.
        reassembled = concat_bytes(extract_byte(wide, i) for i in range(4))
        assert reassembled is wide

    def test_ite_simplifications(self):
        c = binary(ExprOp.EQ, var(8, "x"), const(8, 1))
        a, b = const(32, 5), const(32, 9)
        assert ite(const(1, 1), a, b) is a
        assert ite(c, a, a) is a
        assert ite(c, const(1, 1), const(1, 0)) == c

    def test_evaluate_matches_semantics(self):
        x, y = var(8, "x"), var(8, "y")
        expr = binary(ExprOp.ADD, binary(ExprOp.MUL, x, const(8, 3)), y)
        assert expr.evaluate({"x": 10, "y": 7}) == 37
        signed = binary(ExprOp.SLT, x, const(8, 0))
        assert signed.evaluate({"x": 0xFF}) == 1

    def test_variables_collected(self):
        x, y = var(8, "x"), var(8, "y")
        expr = binary(ExprOp.ADD, x, binary(ExprOp.XOR, y, const(8, 1)))
        assert expr.variables() == frozenset({"x", "y"})

    def test_unsigned_interval(self):
        x = var(8, "x")
        assert unsigned_interval(zext(x, 32)) == (0, 255)
        always_true = binary(ExprOp.ULE, zext(x, 32), const(32, 300))
        assert unsigned_interval(always_true) == (1, 1)
        always_false = binary(ExprOp.ULT, const(32, 500), zext(x, 32))
        assert unsigned_interval(always_false) == (0, 0)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------
class TestSolver:
    def test_simple_sat_and_unsat(self):
        x = var(8, "x")
        solver = Solver()
        sat = solver.check_partition(
            *as_partition([binary(ExprOp.EQ, x, const(8, 65))]))
        assert sat.satisfiable
        unsat = solver.check_partition(
            *as_partition([binary(ExprOp.EQ, x, const(8, 65)),
                           binary(ExprOp.EQ, x, const(8, 66))]))
        assert not unsat.satisfiable

    def test_model_satisfies_constraints(self):
        x, y = var(8, "x"), var(8, "y")
        constraints = [
            binary(ExprOp.ULT, x, const(8, 10)),
            binary(ExprOp.EQ, binary(ExprOp.ADD, x, y), const(8, 200)),
        ]
        model = Solver().model_for_partition(*as_partition(constraints))
        assert model is not None
        assert all(c.evaluate(model) == 1 for c in constraints)

    def test_disjoint_groups_solved_separately(self):
        solver = Solver()
        state = ExecutionState()
        for i in range(12):
            state.add_constraint(
                binary(ExprOp.EQ, var(8, f"v{i}"), const(8, i)))
        varfree, groups = state.full_partition()
        assert len(groups) == 12
        result = solver.check_partition(varfree, groups)
        assert result.satisfiable
        assert solver.stats.group_queries == 12
        model = solver.model_for_partition(varfree, groups)
        assert model["v7"] == 7

    def test_extras_are_solved_with_the_groups_sharing_their_variables(self):
        x, y = var(8, "x"), var(8, "y")
        solver = Solver()
        varfree, groups = as_partition([binary(ExprOp.EQ, x, const(8, 5)),
                                        binary(ExprOp.ULT, y, const(8, 3))])
        # x == 7 contradicts the x group only: solved alone it is SAT.
        assert not solver.check_partition(
            varfree, groups, (binary(ExprOp.EQ, x, const(8, 7)),)).satisfiable
        # The y group shares no variable with the extra: one group query
        # for it, one for the x group joined with the extra.
        before = solver.stats.group_queries
        assert solver.check_partition(
            varfree, groups, (binary(ExprOp.ULT, x, const(8, 9)),)).satisfiable
        assert solver.stats.group_queries == before + 2

    def test_unsatisfiable_partition_has_no_model(self):
        x = var(8, "x")
        solver = Solver()
        contradiction = as_partition([binary(ExprOp.EQ, x, const(8, 1)),
                                      binary(ExprOp.EQ, x, const(8, 2))])
        literal_false = as_partition([const(1, 0)])
        for varfree, groups in (contradiction, literal_false):
            assert not solver.check_partition(varfree, groups).satisfiable
            assert solver.model_for_partition(varfree, groups) is None
            assert solver.concretization_model(varfree, groups) is None

    def test_may_be_true_and_false(self):
        x = var(8, "x")
        solver = Solver()
        cond = binary(ExprOp.ULT, x, const(8, 128))
        assert solver.may_be_true_partition((), [], cond)
        assert solver.may_be_true_partition((), [], not_expr(cond))
        pinned = as_partition([binary(ExprOp.EQ, x, const(8, 5))])
        assert solver.may_be_true_partition(*pinned, cond)
        assert not solver.may_be_true_partition(*pinned, not_expr(cond))

    def test_cache_hits_on_repeated_queries(self):
        x = var(8, "x")
        solver = Solver()
        constraint = binary(ExprOp.ULT, binary(ExprOp.AND, x, const(8, 0x0F)),
                            const(8, 3))
        solver.check_partition(*as_partition([constraint]))
        before = solver.stats.cache_hits
        solver.check_partition(*as_partition([constraint]))
        assert solver.stats.cache_hits > before

    def test_fast_path_avoids_search_for_decided_constraints(self):
        x = var(8, "x")
        solver = Solver()
        tautology = binary(ExprOp.ULE, zext(x, 32), const(32, 255))
        solver.check_partition(*as_partition([tautology]))
        assert solver.stats.fast_path_decisions >= 1
        assert solver.stats.csp_searches == 0

    def test_signed_constraints(self):
        x = var(8, "x")
        negative = binary(ExprOp.SLT, x, const(8, 0))
        model = Solver().model_for_partition(*as_partition([negative]))
        assert model is not None and model["x"] >= 0x80


# ---------------------------------------------------------------------------
# Symbolic memory
# ---------------------------------------------------------------------------
class TestSymbolicMemory:
    def test_store_load_roundtrip_returns_same_expression(self):
        memory = SymbolicMemory()
        address = memory.allocate(8, "slot")
        value = binary(ExprOp.ADD, zext(var(8, "x"), 32), const(32, 5))
        memory.store(address, value, 4)
        assert memory.load(address, 4) == value

    def test_concrete_bytes_and_partial_reads(self):
        memory = SymbolicMemory()
        address = memory.allocate(4, "word")
        memory.store_concrete_bytes(address, bytes([1, 2, 3, 4]))
        assert memory.load(address, 4).value == 0x04030201
        assert memory.load(address + 1, 2).value == 0x0302

    def test_fork_isolates_writes(self):
        memory = SymbolicMemory()
        address = memory.allocate(1, "byte")
        memory.store_concrete_bytes(address, b"\x07")
        clone = memory.fork()
        clone.store_concrete_bytes(address, b"\x09")
        assert memory.load(address, 1).value == 7
        assert clone.load(address, 1).value == 9

    def test_bounds_checked(self):
        memory = SymbolicMemory()
        address = memory.allocate(2, "tiny")
        with pytest.raises(ProgramError):
            memory.load(address + 1, 4)
        with pytest.raises(ProgramError):
            memory.load(10, 1)  # below the null guard


# ---------------------------------------------------------------------------
# Symbolic executor
# ---------------------------------------------------------------------------
class TestExecutor:
    def test_linear_program_has_single_path(self):
        module = compile_to_ir(
            "int main(unsigned char *input, int len) { return input[0] + 1; }")
        report = explore(module, 2)
        assert report.stats.total_paths == 1
        assert not report.bugs

    def test_branch_on_input_forks(self):
        module = compile_to_ir("""
            int main(unsigned char *input, int len) {
                if (input[0] == 'A') { return 1; }
                return 0;
            }
        """)
        report = explore(module, 1)
        assert report.stats.total_paths == 2
        test_inputs = {p.test_input for p in report.paths}
        assert b"A" in test_inputs

    def test_infeasible_branch_not_explored(self):
        module = compile_to_ir("""
            int main(unsigned char *input, int len) {
                unsigned char c = input[0];
                if (c < 10) {
                    if (c > 200) { return 99; }   /* infeasible */
                    return 1;
                }
                return 0;
            }
        """)
        report = explore(module, 1)
        assert report.stats.total_paths == 2
        assert all(p.return_value != 99 for p in report.paths
                   if p.return_value is not None)

    def test_loop_paths_proportional_to_input_length(self):
        module = compile_to_ir("""
            int main(unsigned char *input, int len) {
                int n = 0;
                while (input[n]) { n = n + 1; }
                return n;
            }
        """)
        report = explore(module, 4)
        # Strings of length 0..4 -> 5 paths.
        assert report.stats.total_paths == 5

    def test_select_does_not_fork(self):
        module = compile_to_ir("""
            int main(unsigned char *input, int len) {
                int a = input[0];
                int b = a > 10 ? 1 : 2;
                int c = a > 20 ? b : 5;
                return c + len;
            }
        """)
        from repro.passes import (IfConversion, IfConversionParams,
                                  PassManager, PromoteMemoryToRegisters,
                                  SimplifyCFG)
        manager = PassManager()
        manager.extend([SimplifyCFG(), PromoteMemoryToRegisters(),
                        IfConversion(IfConversionParams(
                            max_speculated_instructions=16)), SimplifyCFG()])
        manager.run_until_fixpoint(module)
        report = explore(module, 1)
        assert report.stats.total_paths == 1

    def test_division_by_symbolic_zero_reported_as_bug(self):
        module = compile_to_ir("""
            int main(unsigned char *input, int len) {
                int d = input[0] - '0';
                return 100 / d;
            }
        """)
        report = explore(module, 1)
        assert any(bug.kind is ErrorKind.DIVISION_BY_ZERO
                   for bug in report.bugs)
        trigger = [bug.test_input for bug in report.bugs
                   if bug.kind is ErrorKind.DIVISION_BY_ZERO][0]
        assert trigger[0] == ord("0")

    def test_out_of_bounds_bug_found_with_triggering_input(self):
        module = compile_to_ir("""
            unsigned char table[4];
            int main(unsigned char *input, int len) {
                int index = 0;
                if (input[0] == 'X') { index = 9; }
                return table[index];
            }
        """)
        report = explore(module, 1)
        oob = [bug for bug in report.bugs
               if bug.kind is ErrorKind.OUT_OF_BOUNDS]
        assert oob and oob[0].test_input == b"X"

    def test_check_fail_call_reported(self):
        module = compile_to_ir("""
            extern void __overify_check_fail(void);
            int main(unsigned char *input, int len) {
                if (input[0] == 'z') { __overify_check_fail(); }
                return 0;
            }
        """)
        report = explore(module, 1)
        assert any(bug.kind is ErrorKind.CHECK_FAILURE for bug in report.bugs)

    def test_limits_terminate_exploration(self):
        module = compile_to_ir("""
            int main(unsigned char *input, int len) {
                int count = 0;
                for (int i = 0; i < len; i++) {
                    if (input[i] > 10) { count += 1; }
                    if (input[i] > 20) { count += 2; }
                    if (input[i] > 30) { count += 3; }
                }
                return count;
            }
        """)
        limits = SymexLimits(max_paths=5)
        report = explore(module, 6, limits=limits)
        assert report.stats.total_paths <= 6

    def test_searchers_reach_same_paths(self):
        source = """
            int main(unsigned char *input, int len) {
                int total = 0;
                if (input[0] == 'a') { total += 1; }
                if (input[1] == 'b') { total += 2; }
                return total;
            }
        """
        counts = set()
        for strategy in ("dfs", "bfs", "random"):
            module = compile_to_ir(source)
            report = explore(module, 2, searcher=strategy)
            counts.add(report.stats.total_paths)
        assert counts == {4}

    def test_path_test_inputs_reproduce_concretely(self):
        source = """
            int main(unsigned char *input, int len) {
                if (input[0] == 'Q' && input[1] == 'R') { return 42; }
                return 7;
            }
        """
        module = compile_to_ir(source)
        report = explore(module, 2)
        # Replay every generated test input in the concrete interpreter and
        # check it is consistent with the symbolic return value.
        replay_module = compile_to_ir(source)
        for path in report.paths:
            if path.test_input is None or path.return_value is None:
                continue
            result = run_module(replay_module, path.test_input)
            assert result.return_value == path.return_value


# ---------------------------------------------------------------------------
# Searcher data structures
# ---------------------------------------------------------------------------
class TestSearchers:
    def _states(self, count):
        from repro.symex import ExecutionState
        return [ExecutionState() for _ in range(count)]

    def test_dfs_is_lifo(self):
        searcher = DFSSearcher()
        states = self._states(3)
        for state in states:
            searcher.add(state)
        assert searcher.pop() is states[-1]

    def test_bfs_is_fifo(self):
        searcher = BFSSearcher()
        states = self._states(3)
        for state in states:
            searcher.add(state)
        assert searcher.pop() is states[0]

    def test_random_searcher_returns_everything(self):
        searcher = RandomSearcher(seed=1)
        states = self._states(5)
        for state in states:
            searcher.add(state)
        popped = {searcher.pop() for _ in range(5)}
        assert popped == set(states)
        assert searcher.empty()
