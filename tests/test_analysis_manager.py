"""Tests for the analysis manager: the two epochs the IR keeps, lazy
caching, and invalidation by epoch across the pass pipeline."""

from repro.analysis import (
    CFG_DERIVED, DOMTREE_ANALYSIS, LOOPS_ANALYSIS, MEMORY_ANALYSIS,
    RANGES_ANALYSIS, AnalysisManager, DominatorTree,
)
from repro.frontend import compile_to_ir
from repro.ir import (
    BasicBlock, BinaryInst, BranchInst, ConstantInt, I32, Opcode, PhiInst,
    ReturnInst,
)
from repro.passes import (
    AnnotateForVerification, ConstantPropagation, DeadCodeElimination,
    Inliner, InlineParams, JumpThreading, Pass, PassManager,
    PromoteMemoryToRegisters, SimplifyCFG,
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


BRANCHY_SOURCE = """
int pick(int a) {
    int r = 0;
    if (a > 3) { r = a + 1; } else { r = a - 1; }
    return r;
}
"""


def _module():
    return compile_to_ir(TWO_FUNCTION_SOURCE)


def _promoted(source):
    """``source`` lowered, with its allocas promoted (so it has phis)."""
    module = compile_to_ir(source)
    manager = PassManager()
    manager.extend([SimplifyCFG(), PromoteMemoryToRegisters()])
    manager.run(module)
    return module


def _conditional_branch(function):
    return next(inst for inst in function.instructions()
                if isinstance(inst, BranchInst) and inst.is_conditional)


def _phi(function):
    return next(inst for inst in function.instructions()
                if isinstance(inst, PhiInst))


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

    def test_block_and_terminator_edits_bump_cfg_epoch(self):
        function = _module().get_function("stable")
        block = BasicBlock("extra")
        before = function.cfg_epoch
        function.append_block(block)
        assert function.cfg_epoch == before + 1
        ret = block.append_instruction(ReturnInst(ConstantInt(I32, 0)))
        assert function.cfg_epoch == before + 2
        ret.erase_from_parent()
        assert function.cfg_epoch == before + 3
        function.remove_block(block)
        assert function.cfg_epoch == before + 4

    def test_value_edits_leave_cfg_epoch(self):
        function = _promoted(BRANCHY_SOURCE).get_function("pick")
        cfg_before, value_before = function.cfg_epoch, function.ir_epoch
        entry = function.entry_block
        add = BinaryInst(Opcode.ADD, function.arguments[0],
                         ConstantInt(I32, 1))
        entry.insert_instruction(0, add)
        branch = _conditional_branch(function)
        branch.set_operand(0, branch.operands[0])  # the condition
        phi = _phi(function)
        phi.add_incoming(ConstantInt(I32, 0), entry)
        phi.remove_incoming(entry)
        add.erase_from_parent()
        assert function.cfg_epoch == cfg_before
        assert function.ir_epoch == value_before + 5

    def test_branch_target_rewrite_bumps_cfg_epoch(self):
        module = _promoted(BRANCHY_SOURCE)
        function = module.get_function("pick")
        branch = _conditional_branch(function)
        before = function.cfg_epoch, function.ir_epoch, module.ir_epoch
        branch.set_operand(2, branch.operands[1])
        after = function.cfg_epoch, function.ir_epoch, module.ir_epoch
        assert all(new == old + 1 for old, new in zip(before, after))


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
        ranges = manager.value_ranges(function)
        function.bump_ir_epoch()
        assert manager.value_ranges(function) is not ranges
        function.bump_cfg_epoch()
        assert manager.dominator_tree(function) is not first
        assert manager.stats.invalidations == 3  # ranges, domtree, cfg

    def test_call_graph_cached_per_module_epoch(self):
        module = _module()
        manager = AnalysisManager()
        first = manager.call_graph(module)
        assert manager.call_graph(module) is first
        # Mutating any function invalidates the module-level analysis too.
        module.get_function("stable").bump_ir_epoch()
        assert manager.call_graph(module) is not first


# ---------------------------------------------------------------------------
# Invalidation by epoch
# ---------------------------------------------------------------------------
class ValueOnlyPass(Pass):
    """Inserts one unused add into every entry block and reports it."""

    name = "value-only"

    def run_on_function(self, function, analyses):
        add = BinaryInst(Opcode.ADD, ConstantInt(I32, 1), ConstantInt(I32, 2))
        function.entry_block.insert_instruction(0, add)
        return True


class RetargetBranch(Pass):
    """Points the first conditional branch's false edge at its true
    target, which changes the dominator tree."""

    name = "retarget"

    def run_on_function(self, function, analyses):
        branch = _conditional_branch(function)
        branch.set_operand(2, branch.true_target)
        return True


class TestEpochInvalidation:
    def test_cfg_analyses_survive_value_epoch_bump(self):
        """A change of values only keeps every CFG-derived entry; the
        analyses that read instructions are recomputed."""
        module = _module()
        function = module.get_function("stable")
        manager = AnalysisManager()
        domtree = manager.dominator_tree(function)
        loops = manager.loop_info(function)
        memory = manager.available_memory(function)
        function.bump_ir_epoch()
        assert manager.dominator_tree(function) is domtree
        assert manager.loop_info(function) is loops
        assert manager.available_memory(function) is not memory

    def test_stale_entry_is_never_restamped(self):
        """An entry made stale by a pass that redirects a branch target
        stays stale through a later pass that changes values only, and
        what the manager returns afterwards matches a fresh dominator
        tree."""
        module = _promoted(BRANCHY_SOURCE)
        function = module.get_function("pick")
        manager = PassManager()
        stale = manager.analyses.dominator_tree(function)
        manager.extend([RetargetBranch(), ValueOnlyPass()])
        assert manager.run(module)
        current = manager.analyses.dominator_tree(function)
        assert current is not stale
        assert current.idom == DominatorTree(function).idom != stale.idom

    def test_value_only_pass_keeps_the_dominator_tree(self):
        module = _module()
        manager = PassManager()
        trees = {f.name: manager.analyses.dominator_tree(f)
                 for f in module.defined_functions()}
        manager.add(ValueOnlyPass())
        assert manager.run(module)
        for function in module.defined_functions():
            assert manager.analyses.is_cached(DOMTREE_ANALYSIS, function)
            assert manager.analyses.dominator_tree(function) is \
                trees[function.name]
            assert not manager.analyses.is_cached(RANGES_ANALYSIS, function)

    def test_phi_and_metadata_edits_keep_cfg_analyses_current(self):
        module = _promoted(BRANCHY_SOURCE)
        function = module.get_function("pick")
        manager = AnalysisManager()
        manager.loop_info(function)
        phi = _phi(function)
        phi.metadata["range"] = (0, 9)
        function.metadata["annotated_for_verification"] = True
        phi.add_incoming(ConstantInt(I32, 0), function.entry_block)
        phi.remove_incoming(function.entry_block)
        for name in CFG_DERIVED:
            assert manager.is_cached(name, function)
        _conditional_branch(function).set_operand(
            2, _conditional_branch(function).true_target)
        for name in CFG_DERIVED:
            assert not manager.is_cached(name, function)

    def test_inline_keeps_the_analyses_of_functions_it_did_not_change(self):
        source = """
        int helper(int a) { return a + 1; }
        int caller(int a) { return helper(a) * 2; }
        int loner(int a, int b) {
            int t = 0;
            for (int i = 0; i < a; i++) { t += b; }
            return t;
        }
        """
        module = compile_to_ir(source)
        manager = PassManager()
        loner = module.get_function("loner")
        caller = module.get_function("caller")
        kept = {name: manager.analyses.loop_info(loner)
                if name == LOOPS_ANALYSIS else
                manager.analyses.available_memory(loner)
                for name in (LOOPS_ANALYSIS, MEMORY_ANALYSIS)}
        manager.analyses.dominator_tree(caller)
        manager.add(Inliner(InlineParams(threshold=1000)))
        assert manager.run(module)
        assert manager.stats.functions_inlined == 1
        for name in (LOOPS_ANALYSIS, MEMORY_ANALYSIS, DOMTREE_ANALYSIS):
            assert manager.analyses.is_cached(name, loner)
        assert manager.analyses.loop_info(loner) is kept[LOOPS_ANALYSIS]
        assert manager.analyses.available_memory(loner) is \
            kept[MEMORY_ANALYSIS]
        assert not manager.analyses.is_cached(DOMTREE_ANALYSIS, caller)


# ---------------------------------------------------------------------------
# Whole-pipeline behaviour
# ---------------------------------------------------------------------------
class TestPipelineIntegration:
    def test_metadata_pass_twice_yields_cache_hits(self):
        """A pass that writes metadata only, run twice, is served every
        analysis from the cache the second time."""
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
        survive, and `shrinks`'s CFG epoch moved, so its must be stale."""
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
        """Threading redirects `thread`'s edges, so its loop info is stale;
        `untouched` keeps the same object."""
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
