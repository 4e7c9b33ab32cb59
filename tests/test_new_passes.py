"""Tests for the path-count pass stack: SCCP, the available-memory
analysis with load elimination, and algebraic simplification.

Three layers of coverage, mirroring the passes' layering:

* **lattice properties** — SCCP's meet operator over an exhaustive cell
  universe (commutative, associative, idempotent, monotonically
  descending), plus the φ-over-executable-edges behaviour on real IR;
* **alias-kill units** — the :class:`AvailableMemory` transfer function on
  hand-built IR: which stores and calls kill which facts;
* **differential sweep** — every registered workload compiled with and
  without the new passes must agree under both the interpreter and the
  symbolic executor (same outputs, same bug signatures): path counts may
  change, behaviour may not.
"""

import itertools

import pytest

from repro.analysis import AvailableMemory, function_metrics
from repro.frontend import analyze, compile_to_ir, lower, parse
from repro.interp import Interpreter, run_module
from repro.ir import (
    BasicBlock, ConstantInt, FunctionType, I32, IRBuilder, LoadInst, Module,
    Opcode, PointerType, verify_module,
)
from repro.passes import (
    AlgebraicSimplify, BOTTOM_CELL, DeadCodeElimination, InstCombine,
    LatticeCell, LoadElimination, PassManager, PromoteMemoryToRegisters,
    SimplifyCFG, SparseConditionalConstantPropagation, TOP_CELL, const_cell,
    meet,
)
from repro.pipelines import (
    CompileOptions, LEVEL_PIPELINES, OptLevel, build_pipeline_from_text,
    link_sources,
)
from repro.symex import SymexLimits, explore
from repro.workloads import get_workload, workload_names

from conftest import (
    assert_same_behaviour, optimize_snippet, run_ir_function,
)


# ---------------------------------------------------------------------------
# SCCP: lattice properties
# ---------------------------------------------------------------------------
#: Exhaustive cell universe for the property tests: both poles plus enough
#: constants to exercise the agree/disagree cases.
CELLS = [TOP_CELL, BOTTOM_CELL] + [const_cell(c) for c in (-2, -1, 0, 1, 2)]


class TestSCCPLattice:
    @pytest.mark.parametrize("a,b", list(itertools.product(CELLS, CELLS)))
    def test_meet_is_commutative(self, a, b):
        assert meet(a, b) == meet(b, a)

    @pytest.mark.parametrize(
        "a,b,c", list(itertools.product(CELLS, CELLS, CELLS)))
    def test_meet_is_associative(self, a, b, c):
        assert meet(meet(a, b), c) == meet(a, meet(b, c))

    @pytest.mark.parametrize("a", CELLS)
    def test_meet_is_idempotent_with_poles(self, a):
        assert meet(a, a) == a
        assert meet(TOP_CELL, a) == a       # ⊤ is the identity
        assert meet(BOTTOM_CELL, a) == BOTTOM_CELL  # ⊥ absorbs

    @pytest.mark.parametrize("a,b", list(itertools.product(CELLS, CELLS)))
    def test_meet_only_descends(self, a, b):
        """Monotonicity: the meet never climbs the lattice, which is what
        guarantees the SCCP worklists terminate."""
        result = meet(a, b)
        assert result.height <= min(a.height, b.height)

    def test_disagreeing_constants_fall_to_bottom(self):
        assert meet(const_cell(1), const_cell(2)) == BOTTOM_CELL
        assert meet(const_cell(3), const_cell(3)) == const_cell(3)

    def test_cell_state_predicates(self):
        assert TOP_CELL.is_top and not TOP_CELL.is_constant
        assert BOTTOM_CELL.is_bottom
        cell = const_cell(7)
        assert cell.is_constant and cell.constant == 7
        assert isinstance(cell, LatticeCell)


# ---------------------------------------------------------------------------
# SCCP: the transform on real IR
# ---------------------------------------------------------------------------
SCCP_PASSES = lambda: [SimplifyCFG(), PromoteMemoryToRegisters(),
                       SparseConditionalConstantPropagation()]


class TestSCCPTransform:
    def test_phi_meets_over_executable_edges_only(self):
        # The else edge is provably dead, so the φ must fold to 3 even
        # though its dead-edge operand is the unknown parameter.
        source = """
        int f(int a) {
            int t = 1;
            int x = 0;
            if (t > 0) { x = 3; } else { x = a; }
            return x;
        }
        """
        module, manager = assert_same_behaviour(
            source, SCCP_PASSES(), "f", [[0], [7], [-3]])
        metrics = function_metrics(module.get_function("f"))
        assert metrics.conditional_branches == 0
        assert manager.stats.branch_edges_deleted >= 1
        assert manager.stats.blocks_removed >= 1

    def test_optimism_sees_through_loop_phis(self):
        # Pessimistic constprop cannot prove x == 0 here: the φ's back-edge
        # operand comes from a branch guarded by x != 0, a cycle only an
        # optimistic ⊤-seeded fixpoint breaks.
        source = """
        int f(int n) {
            int x = 0;
            for (int i = 0; i < n; i++) {
                if (x != 0) { x = 2; }
            }
            return x;
        }
        """
        module, manager = assert_same_behaviour(
            source, SCCP_PASSES(), "f", [[0], [1], [5]])
        assert manager.stats.branch_edges_deleted >= 1
        # The x != 0 arm is gone; only the loop's own branch remains.
        metrics = function_metrics(module.get_function("f"))
        assert metrics.conditional_branches <= 1

    def test_constant_diamond_folds_to_return(self):
        source = """
        int f(int a) {
            int x = 0;
            if (a > 0) { x = 5; } else { x = 5; }
            return x + 1;
        }
        """
        module, _ = assert_same_behaviour(
            source, SCCP_PASSES(), "f", [[1], [-1]])
        function = module.get_function("f")
        # Both arms agree, so the φ is CONST and the add materializes as 6.
        returns = [inst for inst in function.instructions()
                   if inst.opcode is Opcode.RET]
        assert all(isinstance(r.operands[0], ConstantInt)
                   and r.operands[0].value == 6 for r in returns)

    def test_sccp_keeps_genuinely_unknown_branches(self):
        source = "int f(int a) { if (a > 0) { return 1; } return 2; }"
        module, manager = assert_same_behaviour(
            source, SCCP_PASSES(), "f", [[1], [0]])
        assert function_metrics(
            module.get_function("f")).conditional_branches == 1
        assert manager.stats.branch_edges_deleted == 0


# ---------------------------------------------------------------------------
# Available-memory analysis: alias-kill rules
# ---------------------------------------------------------------------------
def _memory_function(pointer_params=2):
    module = Module("t")
    params = tuple(PointerType(I32) for _ in range(pointer_params))
    function = module.create_function("f", FunctionType(I32, params))
    block = BasicBlock("entry")
    function.append_block(block)
    builder = IRBuilder()
    builder.set_insert_point(block)
    return module, function, builder


class TestAvailableMemoryKills:
    def test_store_creates_fact(self):
        _, function, builder = _memory_function()
        p = function.arguments[0]
        builder.store(ConstantInt(I32, 1), p)
        facts = {}
        for inst in function.entry_block.instructions:
            AvailableMemory.transfer(facts, inst)
        fact = facts[id(p)]
        assert fact.size == 4
        assert isinstance(fact.value, ConstantInt) and fact.value.value == 1

    def test_may_aliasing_store_kills_fact(self):
        # p and q are both unknown pointers: a store through q may clobber
        # *p, so p's fact must die while q's survives.
        _, function, builder = _memory_function()
        p, q = function.arguments
        builder.store(ConstantInt(I32, 1), p)
        builder.store(ConstantInt(I32, 2), q)
        facts = {}
        for inst in function.entry_block.instructions:
            AvailableMemory.transfer(facts, inst)
        assert id(p) not in facts
        assert id(q) in facts

    def test_distinct_allocas_do_not_kill_each_other(self):
        _, function, builder = _memory_function(pointer_params=0)
        a = builder.alloca(I32, name="a")
        b = builder.alloca(I32, name="b")
        builder.store(ConstantInt(I32, 1), a)
        builder.store(ConstantInt(I32, 2), b)
        facts = {}
        for inst in function.entry_block.instructions:
            AvailableMemory.transfer(facts, inst)
        assert id(a) in facts and id(b) in facts

    def test_call_kills_escaped_but_not_local_facts(self):
        module, function, builder = _memory_function(pointer_params=1)
        external = module.create_function("g", FunctionType(I32, ()))
        p = function.arguments[0]
        local = builder.alloca(I32, name="local")
        builder.store(ConstantInt(I32, 1), p)
        builder.store(ConstantInt(I32, 2), local)
        builder.call(external, [])
        facts = {}
        for inst in function.entry_block.instructions:
            AvailableMemory.transfer(facts, inst)
        # The callee can write through any escaped pointer (the parameter
        # came from outside), but not through a never-escaping alloca.
        assert id(p) not in facts
        assert id(local) in facts

    def test_passing_alloca_to_call_escapes_it(self):
        module, function, builder = _memory_function(pointer_params=0)
        sink = module.create_function(
            "sink", FunctionType(I32, (PointerType(I32),)))
        local = builder.alloca(I32, name="local")
        builder.store(ConstantInt(I32, 3), local)
        builder.call(sink, [local])
        facts = {}
        for inst in function.entry_block.instructions:
            AvailableMemory.transfer(facts, inst)
        assert id(local) not in facts

    def test_load_records_its_own_value(self):
        _, function, builder = _memory_function(pointer_params=1)
        p = function.arguments[0]
        loaded = builder.load(p, name="v")
        facts = {}
        for inst in function.entry_block.instructions:
            AvailableMemory.transfer(facts, inst)
        assert facts[id(p)].value is loaded

    def test_entry_facts_meet_is_intersection(self):
        # A fact established before a memory-silent diamond survives the
        # join; a fact established in only one arm does not — and a store
        # through an unrelated unknown pointer in one arm kills even the
        # pre-diamond fact, because the meet intersects the arm where it
        # was clobbered.
        quiet = """
        int f(int *p, int flag) {
            *p = 42;
            int r = 0;
            if (flag > 0) { r = 1; } else { r = 2; }
            return r + *p;
        }
        """
        noisy = """
        int f(int *p, int *q, int flag) {
            *p = 42;
            if (flag > 0) { *q = 7; } else { flag = 2; }
            return *p + flag;
        }
        """

        def analysis_and_function(source):
            module = compile_to_ir(source)
            manager = PassManager(verify_after_each=True)
            manager.extend([SimplifyCFG(), PromoteMemoryToRegisters()])
            manager.run_until_fixpoint(module)
            function = module.get_function("f")
            return AvailableMemory(function), function

        memory, function = analysis_and_function(quiet)
        join = function.blocks[-1]
        assert memory.available_value(join, function.arguments[0], 4) \
            is not None

        memory, function = analysis_and_function(noisy)
        join = function.blocks[-1]
        p, q = function.arguments[0], function.arguments[1]
        assert memory.available_value(join, q, 4) is None  # one arm only
        assert memory.available_value(join, p, 4) is None  # killed by *q


# ---------------------------------------------------------------------------
# Load elimination (functional)
# ---------------------------------------------------------------------------
def _run_with_buffer(module, flag, contents=b"\x00\x00\x00\x00"):
    interp = Interpreter(module)
    pointer = interp.allocate_buffer(contents)
    result = interp.run_function("f", [pointer, flag])
    assert not result.crashed, result.error
    return result.return_value


class TestLoadElimination:
    PASSES = lambda self: [SimplifyCFG(), PromoteMemoryToRegisters(),
                           LoadElimination()]

    def test_forwards_store_across_blocks(self):
        # GVN only forwards within a block; the reload of *p after the
        # diamond is exactly the cross-block case this pass exists for.
        source = """
        int f(int *p, int flag) {
            *p = 40;
            int r = 0;
            if (flag > 0) { r = 1; } else { r = 2; }
            return r + *p;
        }
        """
        baseline = compile_to_ir(source)
        expected = [_run_with_buffer(baseline, flag) for flag in (1, -1)]
        module, manager = optimize_snippet(source, self.PASSES())
        assert [_run_with_buffer(module, flag) for flag in (1, -1)] == expected
        function = module.get_function("f")
        assert not any(isinstance(inst, LoadInst)
                       for inst in function.instructions())
        assert manager.stats.loads_eliminated >= 1

    def test_unknown_store_blocks_forwarding(self):
        source = """
        int f(int *p, int *q) {
            *p = 1;
            *q = 2;
            return *p;
        }
        """
        module, manager = optimize_snippet(source, self.PASSES())
        function = module.get_function("f")
        assert any(isinstance(inst, LoadInst)
                   for inst in function.instructions())
        assert manager.stats.loads_eliminated == 0

    def test_call_blocks_forwarding(self):
        source = """
        int g(int *p) { *p = 9; return 0; }
        int f(int *p, int flag) {
            *p = 1;
            g(p);
            return *p + flag - flag;
        }
        """
        module, _ = optimize_snippet(source, self.PASSES())
        assert _run_with_buffer(module, 5) == 9
        function = module.get_function("f")
        assert any(isinstance(inst, LoadInst)
                   for inst in function.instructions())


# ---------------------------------------------------------------------------
# Algebraic simplification
# ---------------------------------------------------------------------------
class TestAlgebraicSimplify:
    PASSES = lambda self: [SimplifyCFG(), PromoteMemoryToRegisters(),
                           AlgebraicSimplify()]

    def test_multiply_by_power_of_two_becomes_shift(self):
        source = "int f(int a) { return a * 8; }"
        module, manager = assert_same_behaviour(
            source, self.PASSES(), "f", [[0], [3], [-5], [1 << 20]])
        function = module.get_function("f")
        opcodes = {inst.opcode for inst in function.instructions()}
        assert Opcode.MUL not in opcodes
        assert Opcode.SHL in opcodes
        assert manager.stats.expressions_simplified >= 1

    def test_constants_canonicalize_to_rhs(self):
        source = "int f(int a) { if (5 > a) { return 1; } return 0; }"
        module, manager = assert_same_behaviour(
            source, self.PASSES(), "f", [[4], [5], [6]])
        function = module.get_function("f")
        from repro.ir import ICmpInst
        compares = [inst for inst in function.instructions()
                    if isinstance(inst, ICmpInst)]
        assert compares
        assert all(isinstance(inst.rhs, ConstantInt) for inst in compares)
        assert manager.stats.comparisons_canonicalized >= 1

    def test_equality_chain_merges_into_range_check(self):
        # The front end flattens the || chain into an or-tree of i1 values;
        # the contiguous run must collapse into a single subtract-and-
        # compare, which is what keeps wc's isspace branch-free AND cheap.
        source = ("int f(int a) { "
                  "return a == 3 || a == 4 || a == 5 || a == 6; }")
        passes = [SimplifyCFG(), PromoteMemoryToRegisters(), InstCombine(),
                  AlgebraicSimplify(), DeadCodeElimination()]
        module, _ = assert_same_behaviour(
            source, passes, "f", [[n] for n in range(0, 9)])
        function = module.get_function("f")
        from repro.ir import ICmpInst
        compares = [inst for inst in function.instructions()
                    if isinstance(inst, ICmpInst)]
        assert len(compares) == 1

    def test_double_negation_cancels(self):
        source = "int f(int a) { return -(-a); }"
        passes = self.PASSES() + [DeadCodeElimination()]
        module, _ = assert_same_behaviour(
            source, passes, "f", [[0], [9], [-9]])
        function = module.get_function("f")
        assert function.instruction_count() == 1  # just `ret a`


# ---------------------------------------------------------------------------
# Differential sweep: behaviour is invariant under the new passes
# ---------------------------------------------------------------------------
NEW_PASSES = ("sccp", "load-elim", "algebraic-simplify")


def _o2_pipeline_text(with_new_passes):
    text = LEVEL_PIPELINES[OptLevel.O2]
    if not with_new_passes:
        for name in NEW_PASSES:
            assert f"{name}," in text
            text = text.replace(f"{name},", "")
    return text


def _compile_o2_variant(source, name, with_new_passes):
    full_source = link_sources(source, CompileOptions(level=OptLevel.O2))
    unit = parse(full_source)
    analyze(unit)
    module = lower(unit, name)
    pipeline = build_pipeline_from_text(_o2_pipeline_text(with_new_passes))
    pipeline.run_until_fixpoint(module)
    verify_module(module)
    return module


class TestDifferentialWithPassesToggled:
    """Every registered workload (coreutils, buggy, and the rest — 40 of
    them) is compiled at -O2 with the new passes on and off; the two
    builds must be observationally identical to the interpreter and to the
    symbolic executor."""

    @pytest.mark.parametrize("name", workload_names())
    def test_interp_and_symex_agree(self, name):
        workload = get_workload(name)
        with_passes = _compile_o2_variant(workload.source, name, True)
        without = _compile_o2_variant(workload.source, name, False)

        concrete = {}
        for key, module in (("on", with_passes), ("off", without)):
            result = run_module(module, workload.sample_input)
            concrete[key] = (result.return_value, result.crashed)
        assert concrete["on"] == concrete["off"], (name, concrete)

        limits = SymexLimits(timeout_seconds=30)
        on = explore(with_passes, 2, limits=limits)
        off = explore(without, 2, limits=limits)
        # Both explorations must be complete: comparing two runs a budget
        # cut short would prove nothing about the paths they never saw.
        assert on.stats.termination_reason == "", (name, "on")
        assert off.stats.termination_reason == "", (name, "off")
        # Path counts may differ — that is the whole point — but the
        # observable behaviour must not: same bug signatures, and every
        # test input either exploration generates must replay identically
        # on both builds.  (Per-path return-value *sets* are not compared:
        # a select-converted build merges paths, and a merged path's model
        # picks one representative return value among several.)
        assert on.bug_signatures() == off.bug_signatures(), name
        for path in on.paths + off.paths:
            if path.test_input is None:
                continue
            replay_on = run_module(with_passes, path.test_input)
            replay_off = run_module(without, path.test_input)
            assert (replay_on.return_value, replay_on.crashed) == \
                (replay_off.return_value, replay_off.crashed), \
                (name, path.test_input)
