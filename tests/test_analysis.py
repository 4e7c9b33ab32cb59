"""Tests for the analysis package: CFG, dominators, loops, call graph,
aliasing, value ranges, and static metrics."""

import pytest

from repro.analysis import (
    AliasResult, CallGraph, DominatorTree, LoopInfo, ValueRangeAnalysis,
    alias, alloca_address_escapes, compute_trip_count, function_metrics,
    module_metrics, reachable_blocks, remove_unreachable_blocks,
    reverse_postorder, underlying_object,
)
from repro.frontend import compile_to_ir
from repro.ir import AllocaInst, ConstantInt, GEPInst, LoadInst, I64
from repro.passes import PromoteMemoryToRegisters, SimplifyCFG


def _prepared(source: str, name: str):
    """Compile, clean up the CFG and promote to SSA (the state most analyses
    are used in)."""
    module = compile_to_ir(source)
    SimplifyCFG().run_on_module(module)
    PromoteMemoryToRegisters().run_on_module(module)
    return module.get_function(name)


LOOP_SOURCE = """
int sum_to(int n) {
    int total = 0;
    for (int i = 0; i < n; i++) {
        total += i;
    }
    return total;
}
"""

NESTED_LOOP_SOURCE = """
int grid(int n) {
    int total = 0;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            total += i * j;
        }
    }
    return total;
}
"""

DIAMOND_SOURCE = """
int pick(int flag, int a, int b) {
    int result;
    if (flag) { result = a; } else { result = b; }
    return result;
}
"""


class TestCFG:
    def test_reachable_blocks_cover_function(self):
        function = _prepared(DIAMOND_SOURCE, "pick")
        reachable = reachable_blocks(function)
        assert reachable[0] is function.entry_block
        assert set(id(b) for b in reachable) == set(id(b) for b in function.blocks)

    def test_reverse_postorder_starts_at_entry(self):
        function = _prepared(LOOP_SOURCE, "sum_to")
        order = reverse_postorder(function)
        assert order[0] is function.entry_block
        assert len(order) == len(function.blocks)

    def test_remove_unreachable_blocks(self):
        source = """
        int f(int a) {
            return a;
            a = a + 1;
            return a;
        }
        """
        module = compile_to_ir(source)
        function = module.get_function("f")
        removed = remove_unreachable_blocks(function)
        assert removed >= 1
        assert len(reachable_blocks(function)) == len(function.blocks)


class TestDominators:
    def test_entry_dominates_everything(self):
        function = _prepared(LOOP_SOURCE, "sum_to")
        domtree = DominatorTree(function)
        for block in function.blocks:
            assert domtree.dominates(function.entry_block, block)

    def test_branch_arms_do_not_dominate_join(self):
        function = _prepared(DIAMOND_SOURCE, "pick")
        domtree = DominatorTree(function)
        entry = function.entry_block
        then_block, else_block = entry.successors()
        join = then_block.successors()[0]
        assert not domtree.dominates(then_block, join)
        assert not domtree.dominates(else_block, join)
        assert domtree.dominates(entry, join)

    def test_dominance_frontier_of_arms_is_join(self):
        function = _prepared(DIAMOND_SOURCE, "pick")
        domtree = DominatorTree(function)
        frontier = domtree.dominance_frontier()
        entry = function.entry_block
        then_block, else_block = entry.successors()
        join = then_block.successors()[0]
        assert join in frontier[then_block]
        assert join in frontier[else_block]

    def test_idom_of_entry_is_none(self):
        function = _prepared(LOOP_SOURCE, "sum_to")
        domtree = DominatorTree(function)
        assert domtree.immediate_dominator(function.entry_block) is None


class TestLoops:
    def test_single_loop_detected(self):
        function = _prepared(LOOP_SOURCE, "sum_to")
        loops = LoopInfo(function)
        assert len(loops.loops) == 1
        loop = loops.loops[0]
        assert loop.depth == 1
        assert loop.header in loop.blocks
        assert loop.latches

    def test_nested_loops_detected_with_depth(self):
        function = _prepared(NESTED_LOOP_SOURCE, "grid")
        loops = LoopInfo(function)
        assert len(loops.loops) == 2
        assert max(loop.depth for loop in loops.loops) == 2
        inner = [l for l in loops.loops if l.depth == 2][0]
        outer = [l for l in loops.loops if l.depth == 1][0]
        assert inner.parent is outer
        assert inner in outer.subloops

    def test_loop_exit_blocks_outside_loop(self):
        function = _prepared(LOOP_SOURCE, "sum_to")
        loop = LoopInfo(function).loops[0]
        for exit_block in loop.exit_blocks():
            assert not loop.contains(exit_block)

    def test_preheader_found(self):
        function = _prepared(LOOP_SOURCE, "sum_to")
        loop = LoopInfo(function).loops[0]
        preheader = loop.preheader()
        assert preheader is not None
        assert preheader.successors() == [loop.header]

    def test_trip_count_of_constant_loop(self):
        source = """
        int f() {
            int total = 0;
            for (int i = 0; i < 7; i++) { total += i; }
            return total;
        }
        """
        function = _prepared(source, "f")
        loop = LoopInfo(function).loops[0]
        trip = compute_trip_count(loop)
        assert trip is not None
        assert trip.count == 7

    def test_trip_count_unknown_for_symbolic_bound(self):
        function = _prepared(LOOP_SOURCE, "sum_to")
        loop = LoopInfo(function).loops[0]
        assert compute_trip_count(loop, max_count=64) is None


class TestCallGraph:
    SOURCE = """
    int leaf(int a) { return a + 1; }
    int middle(int a) { return leaf(a) * 2; }
    int top(int a) { return middle(a) + leaf(a); }
    int looper(int a) { if (a > 0) { return looper(a - 1); } return 0; }
    """

    def test_callees_and_callers(self):
        module = compile_to_ir(self.SOURCE)
        graph = CallGraph(module)
        assert set(graph.callees_of("top")) == {"middle", "leaf"}
        assert set(graph.callers_of("leaf")) == {"middle", "top"}

    def test_recursion_detected(self):
        module = compile_to_ir(self.SOURCE)
        graph = CallGraph(module)
        assert graph.is_recursive("looper")
        assert not graph.is_recursive("leaf")

    def test_bottom_up_order_places_callees_first(self):
        module = compile_to_ir(self.SOURCE)
        order = [f.name for f in CallGraph(module).bottom_up_order()]
        assert order.index("leaf") < order.index("middle") < order.index("top")

    def test_reachable_from(self):
        module = compile_to_ir(self.SOURCE)
        graph = CallGraph(module)
        assert graph.reachable_from(["middle"]) == {"middle", "leaf"}


class TestAlias:
    def test_distinct_allocas_do_not_alias(self):
        from repro.ir import I32
        a = AllocaInst(I32, "a")
        b = AllocaInst(I32, "b")
        assert alias(a, 4, b, 4) is AliasResult.NO_ALIAS

    def test_same_alloca_same_offset_must_alias(self):
        from repro.ir import I32
        a = AllocaInst(I32, "a")
        assert alias(a, 4, a, 4) is AliasResult.MUST_ALIAS

    def test_disjoint_offsets_do_not_alias(self):
        from repro.ir import ArrayType, I8
        a = AllocaInst(ArrayType(I8, 16), "buf")
        gep_low = GEPInst(a, [ConstantInt(I64, 0)], I8)
        gep_high = GEPInst(a, [ConstantInt(I64, 8)], I8)
        assert alias(gep_low, 4, gep_high, 4) is AliasResult.NO_ALIAS
        assert alias(gep_low, 9, gep_high, 4) is AliasResult.MAY_ALIAS

    def test_underlying_object_strips_geps(self):
        from repro.ir import ArrayType, I8
        a = AllocaInst(ArrayType(I8, 16), "buf")
        gep = GEPInst(a, [ConstantInt(I64, 3)], I8)
        gep2 = GEPInst(gep, [ConstantInt(I64, 2)], I8)
        info = underlying_object(gep2)
        assert info.base is a
        assert info.offset == 5

    def test_escape_analysis(self):
        source = """
        int touch(int *p) { return *p; }
        int local_only() { int x = 1; x = x + 1; return x; }
        int escaping() { int x = 1; return touch(&x); }
        """
        module = compile_to_ir(source)
        local = module.get_function("local_only")
        escaping = module.get_function("escaping")
        local_alloca = [i for i in local.instructions()
                        if isinstance(i, AllocaInst)][0]
        escaping_alloca = [i for i in escaping.instructions()
                           if isinstance(i, AllocaInst)][0]
        assert not alloca_address_escapes(local_alloca)
        assert alloca_address_escapes(escaping_alloca)


class TestMetricsAndRanges:
    def test_function_metrics_counts(self):
        module = compile_to_ir(DIAMOND_SOURCE)
        metrics = function_metrics(module.get_function("pick"))
        assert metrics.conditional_branches == 1
        assert metrics.allocas >= 3
        assert metrics.instructions > 0
        assert metrics.blocks >= 4

    def test_module_metrics_aggregate(self):
        module = compile_to_ir(LOOP_SOURCE + DIAMOND_SOURCE)
        metrics = module_metrics(module)
        assert metrics.functions == 2
        assert metrics.loops == 1
        assert "pick" in metrics.per_function

    def test_value_ranges_of_bools_and_bytes(self):
        source = "int f(unsigned char c) { int is_x = c == 120; return is_x; }"
        function = _prepared(source, "f")
        analysis = ValueRangeAnalysis(function)
        from repro.ir import CastInst, ICmpInst
        for inst in function.instructions():
            if isinstance(inst, ICmpInst):
                assert analysis.range_of(inst).high <= 1
            if isinstance(inst, CastInst) and inst.opcode.value == "zext" and \
                    inst.value.type.width == 1:
                interval = analysis.range_of(inst)
                assert interval.low == 0 and interval.high == 1
