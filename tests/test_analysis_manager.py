"""Tests for the analysis manager: epoch tracking, lazy caching, and
preservation-driven invalidation across the pass pipeline."""

import pytest

from repro.analysis import (
    CFG_DERIVED, DOMTREE_ANALYSIS, LOOPS_ANALYSIS, RANGES_ANALYSIS,
    AnalysisManager, CallGraph, DominatorTree, LoopInfo, PreservedAnalyses,
)
from repro.frontend import compile_to_ir
from repro.ir import BasicBlock, ConstantInt, I32, ReturnInst
from repro.passes import (
    AnnotateForVerification, ConstantPropagation, DeadCodeElimination,
    JumpThreading, PassManager, PromoteMemoryToRegisters, SimplifyCFG,
)

TWO_FUNCTION_SOURCE = """
int stable(int a, int b) {
    int total = 0;
    for (int i = 0; i < a; i++) { total += b; }
    return total;
}
int shrinks(int a) {
    if (1) { return a + 1; } else { return a - 1; }
}
"""


def _module():
    return compile_to_ir(TWO_FUNCTION_SOURCE)


# ---------------------------------------------------------------------------
# Epoch bookkeeping
# ---------------------------------------------------------------------------
class TestModificationEpochs:
    def test_instruction_mutation_bumps_function_and_module_epoch(self):
        module = _module()
        function = module.get_function("stable")
        before_fn, before_mod = function.ir_epoch, module.ir_epoch
        ret = BasicBlock("extra")
        function.append_block(ret)
        ret.append_instruction(ReturnInst(ConstantInt(I32, 0)))
        assert function.ir_epoch > before_fn
        assert module.ir_epoch > before_mod

    def test_operand_rewrite_bumps_epoch(self):
        module = _module()
        function = module.get_function("shrinks")
        before = function.ir_epoch
        inst = next(i for i in function.instructions() if i.operands)
        inst.set_operand(0, inst.operands[0])
        assert function.ir_epoch > before


# ---------------------------------------------------------------------------
# Lazy caching
# ---------------------------------------------------------------------------
class TestCaching:
    def test_repeated_request_is_identity_preserving_hit(self):
        module = _module()
        function = module.get_function("stable")
        manager = AnalysisManager()
        first = manager.dominator_tree(function)
        again = manager.dominator_tree(function)
        assert first is again
        assert manager.stats.hits == 1
        assert manager.stats.misses >= 1  # domtree (+ cfg dependency)

    def test_loop_info_shares_cached_dominator_tree(self):
        module = _module()
        function = module.get_function("stable")
        manager = AnalysisManager()
        domtree = manager.dominator_tree(function)
        loops = manager.loop_info(function)
        assert loops.domtree is domtree

    def test_mutation_triggers_recompute(self):
        module = _module()
        function = module.get_function("stable")
        manager = AnalysisManager()
        first = manager.dominator_tree(function)
        function.bump_ir_epoch()
        assert manager.dominator_tree(function) is not first

    def test_call_graph_cached_per_module_epoch(self):
        module = _module()
        manager = AnalysisManager()
        first = manager.call_graph(module)
        assert manager.call_graph(module) is first
        # Mutating any function invalidates the module-level analysis too.
        module.get_function("stable").bump_ir_epoch()
        assert manager.call_graph(module) is not first


# ---------------------------------------------------------------------------
# Preservation-driven invalidation
# ---------------------------------------------------------------------------
class TestPreservedAnalyses:
    def test_unchanged_preserves_everything(self):
        pa = PreservedAnalyses.unchanged()
        assert not pa.changed
        assert pa.preserves(DOMTREE_ANALYSIS)

    def test_none_preserves_nothing(self):
        pa = PreservedAnalyses.none()
        assert pa.changed
        assert not pa.preserves(DOMTREE_ANALYSIS)

    def test_cfg_preserving_keeps_shape_analyses_only(self):
        pa = PreservedAnalyses.cfg_preserving()
        for name in CFG_DERIVED:
            assert pa.preserves(name)
        assert not pa.preserves(RANGES_ANALYSIS)

    def test_legacy_bool_coercion(self):
        assert PreservedAnalyses.from_legacy(True).changed
        assert not PreservedAnalyses.from_legacy(False).changed
        pa = PreservedAnalyses.none()
        assert PreservedAnalyses.from_legacy(pa) is pa

    def test_declared_preservation_survives_epoch_bump(self):
        """A pass that changed the IR but preserved the dominator tree gets
        its cache entry re-stamped instead of dropped."""
        module = _module()
        function = module.get_function("stable")
        manager = AnalysisManager()
        domtree = manager.dominator_tree(function)
        epoch_before = function.ir_epoch
        function.bump_ir_epoch()  # the "pass" mutated values only
        manager.after_function_pass(
            function, PreservedAnalyses.cfg_preserving(), epoch_before)
        assert manager.dominator_tree(function) is domtree

    def test_stale_entry_is_never_restamped(self):
        """An entry that was already stale when the pass started must not be
        promoted to current by the pass's preservation declaration."""
        module = _module()
        function = module.get_function("stable")
        manager = AnalysisManager()
        stale = manager.dominator_tree(function)
        function.bump_ir_epoch()        # mutation BEFORE the pass ran
        epoch_before = function.ir_epoch
        function.bump_ir_epoch()        # mutation made BY the pass
        manager.after_function_pass(
            function, PreservedAnalyses.cfg_preserving(), epoch_before)
        assert manager.dominator_tree(function) is not stale


# ---------------------------------------------------------------------------
# Whole-pipeline behaviour
# ---------------------------------------------------------------------------
class TestPipelineIntegration:
    def test_all_preserving_pass_twice_yields_cache_hits(self):
        """The acceptance criterion: running an all-preserving pass twice
        reports at least one analysis cache hit, with identical analysis
        objects served both times."""
        module = _module()
        manager = PassManager()
        manager.extend([AnnotateForVerification(), AnnotateForVerification()])
        manager.run(module)
        assert manager.analyses.stats.hits >= 1
        second = manager.history[1]
        assert second.analysis_cache_hits >= 1
        assert second.analysis_cache_misses == 0

    def test_cfg_mutating_pass_invalidates_only_changed_functions(self):
        """SimplifyCFG folds the (propagated) constant branch in `shrinks`
        but leaves the single-block `stable` alone: `stable`'s analyses must
        survive, `shrinks`'s must be dropped."""
        source = """
        int stable(int a, int b) { return a + b; }
        int shrinks(int a) {
            int flag = 1;
            if (flag) { return a + 1; }
            return a - 1;
        }
        """
        module = compile_to_ir(source)
        prep = PassManager()
        prep.extend([SimplifyCFG(), PromoteMemoryToRegisters(),
                     ConstantPropagation()])
        prep.run(module)

        stable = module.get_function("stable")
        shrinks = module.get_function("shrinks")
        manager = PassManager(analyses=prep.analyses)
        analyses = manager.analyses
        stable_domtree = analyses.dominator_tree(stable)
        shrinks_domtree = analyses.dominator_tree(shrinks)

        manager.add(SimplifyCFG())
        assert manager.run(module)  # shrinks' constant branch folds

        assert analyses.is_cached(DOMTREE_ANALYSIS, stable)
        assert analyses.dominator_tree(stable) is stable_domtree
        assert not analyses.is_cached(DOMTREE_ANALYSIS, shrinks)
        assert analyses.dominator_tree(shrinks) is not shrinks_domtree

    def test_jump_threading_invalidates_changed_function(self):
        source = """
        int thread(int a) {
            int x;
            if (a > 0) { x = 1; } else { x = 0; }
            if (x) { return 10; }
            return 20;
        }
        int untouched(int a) { return a; }
        """
        module = compile_to_ir(source)
        prep = PassManager()
        prep.extend([SimplifyCFG(), PromoteMemoryToRegisters(),
                     ConstantPropagation()])
        prep.run(module)

        thread_fn = module.get_function("thread")
        untouched_fn = module.get_function("untouched")
        manager = PassManager(analyses=prep.analyses)
        analyses = manager.analyses
        analyses.loop_info(thread_fn)
        untouched_loops = analyses.loop_info(untouched_fn)

        manager.add(JumpThreading())
        assert manager.run(module)
        assert manager.stats.jumps_threaded >= 1
        assert not analyses.is_cached(LOOPS_ANALYSIS, thread_fn)
        assert analyses.is_cached(LOOPS_ANALYSIS, untouched_fn)
        assert analyses.loop_info(untouched_fn) is untouched_loops

    def test_counters_flow_into_transform_stats_and_history(self):
        module = _module()
        manager = PassManager()
        manager.extend([SimplifyCFG(), PromoteMemoryToRegisters(),
                        DeadCodeElimination(), AnnotateForVerification()])
        manager.run(module)
        # The pipeline's cache totals live on the analysis manager; the
        # per-run records must add up to them.
        stats = manager.analyses.stats
        assert stats.misses > 0
        assert len(manager.history) == 4
        recorded_hits = sum(r.analysis_cache_hits for r in manager.history)
        recorded_misses = sum(r.analysis_cache_misses
                              for r in manager.history)
        assert (recorded_hits, recorded_misses) == (stats.hits, stats.misses)

    def test_no_pass_constructs_core_analyses_directly(self):
        """Guard for the refactor's invariant: passes obtain LoopInfo,
        DominatorTree, and CallGraph through the analysis manager only."""
        import pathlib
        import re
        passes_dir = pathlib.Path(__file__).resolve().parent.parent \
            / "src" / "repro" / "passes"
        pattern = re.compile(
            r"\b(?:LoopInfo|DominatorTree|CallGraph)\s*\(")
        offenders = []
        for path in passes_dir.glob("*.py"):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if pattern.search(line):
                    offenders.append(f"{path.name}:{lineno}: {line.strip()}")
        assert not offenders, "\n".join(offenders)
