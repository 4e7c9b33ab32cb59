"""Tests for the optimization passes.

Each structural expectation is paired with a semantic check: the transformed
function must still compute the same results when interpreted.
"""

import types

import pytest

from repro.analysis import (
    DominatorTree, LoopInfo, function_metrics, is_speculatable,
)
from repro.frontend import compile_to_ir
from repro.interp import Interpreter
from repro.ir import (
    I32, I64, AllocaInst, ArrayType, BasicBlock, BranchInst, CallInst,
    ConstantInt, FunctionType, ICmpPredicate, IRBuilder, LoadInst, Module,
    PhiInst, PointerType, SelectInst, StoreInst, print_module, verify_module,
)
from repro.passes import (
    AnnotateForVerification, ConstantPropagation, DeadCodeElimination,
    GlobalDCE, GlobalValueNumbering, IfConversion, IfConversionParams,
    InlineParams, Inliner, InsertRuntimeChecks, InstCombine, JumpThreading,
    LoopInvariantCodeMotion, LoopUnrolling, LoopUnswitching, PassManager,
    PromoteMemoryToRegisters, ROUND_CAP, ScalarReplacementOfAggregates,
    SimplifyCFG, TransformStats, UnrollParams, UnswitchParams,
    insert_lcssa_phis, single_exit_block,
)


def _run(module, name, args):
    return Interpreter(module).run_function(name, args).return_value


def _optimize(source, passes, verify=True):
    module = compile_to_ir(source)
    manager = PassManager(verify_after_each=verify)
    manager.extend(passes)
    manager.run_until_fixpoint(module)
    return module, manager


def _assert_same_behaviour(source, passes, name, argument_sets):
    """Run `name` before and after the passes on every argument set."""
    baseline = compile_to_ir(source)
    expected = [_run(baseline, name, args) for args in argument_sets]
    module, manager = _optimize(source, passes)
    actual = [_run(module, name, args) for args in argument_sets]
    assert actual == expected
    return module, manager


STANDARD_CLEANUP = lambda: [SimplifyCFG(), PromoteMemoryToRegisters(),
                            ConstantPropagation(), InstCombine(),
                            DeadCodeElimination(), SimplifyCFG()]


class TestMem2Reg:
    SOURCE = """
    int f(int a, int b) {
        int x = a;
        int y = b;
        if (a > b) { x = x + y; } else { y = y - x; }
        return x * 10 + y;
    }
    """

    def test_promotes_all_scalar_allocas(self):
        module, manager = _assert_same_behaviour(
            self.SOURCE, [SimplifyCFG(), PromoteMemoryToRegisters()],
            "f", [[3, 1], [1, 3], [5, 5]])
        function = module.get_function("f")
        assert not any(isinstance(i, AllocaInst) for i in function.instructions())
        assert not any(isinstance(i, (LoadInst, StoreInst))
                       for i in function.instructions())
        assert manager.stats.allocas_promoted >= 4

    def test_inserts_phis_at_joins(self):
        module, _ = _optimize(self.SOURCE,
                              [SimplifyCFG(), PromoteMemoryToRegisters()])
        function = module.get_function("f")
        assert any(isinstance(i, PhiInst) for i in function.instructions())

    def test_does_not_promote_address_taken_alloca(self):
        source = """
        int deref(int *p) { return *p; }
        int f(int a) { int x = a; return deref(&x); }
        """
        module, _ = _optimize(source, [SimplifyCFG(),
                                       PromoteMemoryToRegisters()])
        function = module.get_function("f")
        assert any(isinstance(i, AllocaInst) for i in function.instructions())

    def test_loop_carried_values_get_phis(self):
        source = """
        int f(int n) {
            int total = 0;
            for (int i = 0; i < n; i++) { total += i; }
            return total;
        }
        """
        module, _ = _assert_same_behaviour(
            source, [SimplifyCFG(), PromoteMemoryToRegisters()],
            "f", [[0], [1], [5], [10]])
        function = module.get_function("f")
        header_phis = [i for i in function.instructions()
                       if isinstance(i, PhiInst)]
        assert len(header_phis) >= 2  # i and total


class TestConstantFoldingAndInstCombine:
    def test_constant_expressions_fold_away(self):
        source = "int f() { int a = 3 * 4 + 2; int b = a << 1; return b - 1; }"
        module, _ = _assert_same_behaviour(
            source, STANDARD_CLEANUP(), "f", [[]])
        function = module.get_function("f")
        # Everything folds down to `ret 27`.
        assert function.instruction_count() == 1

    def test_identities_removed(self):
        source = "int f(int a) { return (a + 0) * 1 + (a - a) + (a & -1); }"
        module, _ = _assert_same_behaviour(
            source, STANDARD_CLEANUP(), "f", [[7], [0], [123]])
        metrics = function_metrics(module.get_function("f"))
        # Only the final add (a + a) should remain beyond the return.
        assert metrics.instructions <= 3

    def test_zext_icmp_roundtrip_removed(self):
        # The front end produces `icmp ne (zext i1 ...), 0` chains; they must
        # collapse so branch conditions stay small.
        source = "int f(int a, int b) { if ((a < b) != 0) { return 1; } return 0; }"
        module, _ = _assert_same_behaviour(
            source, STANDARD_CLEANUP(), "f", [[1, 2], [2, 1]])
        function = module.get_function("f")
        from repro.ir import CastInst, Opcode
        zext_of_bool = [i for i in function.instructions()
                        if isinstance(i, CastInst) and
                        i.opcode is Opcode.ZEXT and i.value.type.width == 1]
        # At most the one zext feeding the return value remains.
        assert len(zext_of_bool) <= 1

    def test_constant_branch_folds_and_dead_arm_removed(self):
        source = """
        int f(int a) {
            if (1 > 2) { return 111; }
            return a;
        }
        """
        module, _ = _assert_same_behaviour(source, STANDARD_CLEANUP(),
                                           "f", [[9]])
        function = module.get_function("f")
        assert len(function.blocks) == 1

    def test_select_simplifications(self):
        source = "int f(int c, int x) { return c ? x : x; }"
        module, _ = _assert_same_behaviour(source, STANDARD_CLEANUP(),
                                           "f", [[0, 5], [1, 5]])
        assert not any(isinstance(i, SelectInst)
                       for i in module.get_function("f").instructions())


class TestDCEAndGlobalDCE:
    def test_unused_computations_removed(self):
        source = """
        int f(int a) {
            int unused = a * 12345;
            int also_unused = unused + 7;
            return a;
        }
        """
        module, manager = _assert_same_behaviour(
            source, [SimplifyCFG(), PromoteMemoryToRegisters(),
                     DeadCodeElimination()], "f", [[4]])
        assert module.get_function("f").instruction_count() == 1
        assert manager.stats.instructions_removed > 0

    def test_stores_to_dead_allocas_removed(self):
        source = "int f(int a) { int dead = a; int dead2 = a * 3; return a; }"
        module, _ = _optimize(source, [DeadCodeElimination()])
        function = module.get_function("f")
        # Only the parameter spill remains (it is loaded for the return).
        allocas = [i for i in function.instructions()
                   if isinstance(i, AllocaInst)]
        assert all(a.name.startswith("a.addr") for a in allocas)

    def test_global_dce_removes_unreachable_functions(self):
        source = """
        int helper(int a) { return a + 1; }
        int unused_helper(int a) { return a * 2; }
        int main(unsigned char *input, int len) { return helper(len); }
        """
        module, manager = _optimize(
            source, [Inliner(InlineParams(threshold=1000)),
                     GlobalDCE({"main"})], verify=True)
        assert module.get_function_or_none("unused_helper") is None
        assert module.get_function_or_none("main") is not None
        assert manager.stats.functions_removed >= 1

    def test_global_dce_deletes_dead_callees_in_one_run(self):
        # `leaf` comes first and is still called by the dead `middle` when
        # the sweep reaches it; it must not need a second run.
        source = """
        int leaf(int a) { return a + 1; }
        int middle(int a) { return leaf(a) * 2; }
        int main(unsigned char *input, int len) { return len; }
        """
        module = compile_to_ir(source)
        manager = PassManager()
        manager.add(GlobalDCE({"main"}))
        manager.run(module)
        assert list(module.functions) == ["main"]
        assert manager.stats.functions_removed == 2

    def test_global_dce_keeps_everything_without_roots(self):
        source = "int orphan(int a) { return a; }"
        module, _ = _optimize(source, [GlobalDCE({"main"})])
        assert module.get_function_or_none("orphan") is not None


class TestGVN:
    def test_repeated_expression_computed_once(self):
        source = "int f(int a, int b) { return (a + b) * (a + b); }"
        module, manager = _assert_same_behaviour(
            source, [SimplifyCFG(), PromoteMemoryToRegisters(),
                     GlobalValueNumbering(), DeadCodeElimination()],
            "f", [[2, 3], [10, -4 & 0xFFFFFFFF]])
        function = module.get_function("f")
        adds = [i for i in function.instructions()
                if i.opcode.value == "add"]
        assert len(adds) == 1
        assert manager.stats.redundancies_eliminated >= 1

    def test_redundant_load_forwarding_within_block(self):
        source = """
        int f(int *p) {
            int a = *p;
            int b = *p;
            return a + b;
        }
        """
        module, _ = _optimize(source, [SimplifyCFG(),
                                       PromoteMemoryToRegisters(),
                                       GlobalValueNumbering(),
                                       DeadCodeElimination()])
        loads = [i for i in module.get_function("f").instructions()
                 if isinstance(i, LoadInst)]
        assert len(loads) == 1

    def test_store_to_unknown_pointer_kills_load_cse(self):
        source = """
        int f(int *p, int *q) {
            int a = *p;
            *q = 7;
            int b = *p;
            return a + b;
        }
        """
        module, _ = _optimize(source, [SimplifyCFG(),
                                       PromoteMemoryToRegisters(),
                                       GlobalValueNumbering()])
        loads = [i for i in module.get_function("f").instructions()
                 if isinstance(i, LoadInst)]
        assert len(loads) == 2  # q may alias p, so the reload must stay

    @pytest.mark.parametrize("parameter, argument, loads", [
        ("void", "", 1),       # x's slot does not escape: the call keeps it
        ("int *p", "&x", 2),   # ext may write x: the reload stays
    ])
    def test_store_forwarding_across_a_call(self, parameter, argument,
                                            loads):
        """gvn forwards with load-elim's walk, whose call kills are the
        available-memory analysis's: a call spares a slot whose address
        never escapes."""
        module = compile_to_ir(f"""
        extern void ext({parameter});
        int main(unsigned char *input, int len) {{
            int x = input[0];
            ext({argument});
            return x;
        }}
        """)
        function = module.get_function("main")
        assert sum(isinstance(i, LoadInst)
                   for i in function.instructions()) == 3
        GlobalValueNumbering().run_on_module(module)
        verify_module(module)
        assert sum(isinstance(i, LoadInst)
                   for i in function.instructions()) == loads


class TestSROA:
    def test_struct_alloca_split_and_promoted(self):
        source = """
        struct pair { int first; int second; };
        int f(int a, int b) {
            struct pair p;
            p.first = a;
            p.second = b;
            return p.first * 100 + p.second;
        }
        """
        module, manager = _assert_same_behaviour(
            source, [SimplifyCFG(), ScalarReplacementOfAggregates(),
                     PromoteMemoryToRegisters(), ConstantPropagation(),
                     InstCombine(), DeadCodeElimination()],
            "f", [[1, 2], [7, 9]])
        function = module.get_function("f")
        assert manager.stats.aggregates_split == 1
        assert not any(isinstance(i, (LoadInst, StoreInst))
                       for i in function.instructions())

    def test_escaping_struct_not_split(self):
        source = """
        struct pair { int first; int second; };
        int read_first(struct pair *p) { return p->first; }
        int f(int a) {
            struct pair p;
            p.first = a;
            p.second = 0;
            return read_first(&p);
        }
        """
        module, manager = _optimize(source,
                                    [ScalarReplacementOfAggregates()])
        assert manager.stats.aggregates_split == 0


class TestInliner:
    SOURCE = """
    int square(int x) { return x * x; }
    int cube(int x) { return x * square(x); }
    int f(int a) { return cube(a) + square(a); }
    """

    def test_inlining_removes_calls(self):
        module, manager = _assert_same_behaviour(
            self.SOURCE, [Inliner(InlineParams(threshold=1000)),
                          *STANDARD_CLEANUP()],
            "f", [[3], [5]])
        function = module.get_function("f")
        assert not any(isinstance(i, CallInst) for i in function.instructions())
        assert manager.stats.functions_inlined >= 3

    def test_threshold_zero_inlines_nothing(self):
        module, manager = _optimize(
            self.SOURCE, [Inliner(InlineParams(threshold=0,
                                               constant_arg_bonus=0))])
        assert manager.stats.functions_inlined == 0

    def test_recursive_functions_never_inlined(self):
        source = """
        int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
        int f(int a) { return fact(a); }
        """
        module, manager = _assert_same_behaviour(
            source, [Inliner(InlineParams(threshold=10_000))], "f", [[5]])
        assert module.get_function_or_none("fact") is not None
        assert _run(module, "f", [5]) == 120

    def test_multiple_returns_merge_through_phi(self):
        source = """
        int pick(int c, int a, int b) { if (c) { return a; } return b; }
        int f(int c) { return pick(c, 10, 20); }
        """
        module, _ = _assert_same_behaviour(
            source, [Inliner(InlineParams(threshold=1000)), SimplifyCFG()],
            "f", [[0], [1]])
        assert _run(module, "f", [1]) == 10
        assert _run(module, "f", [0]) == 20

    def test_no_inline_attribute_respected(self):
        module = compile_to_ir(self.SOURCE)
        module.get_function("square").attributes["no_inline"] = True
        manager = PassManager()
        manager.add(Inliner(InlineParams(threshold=1000)))
        manager.run(module)
        remaining_calls = [i for i in module.get_function("f").instructions()
                           if isinstance(i, CallInst)]
        assert any(i.callee.name == "square" for i in remaining_calls)


class TestIfConversion:
    SOURCE = """
    int f(int a, int b) {
        int result;
        if (a > b) { result = a - b; } else { result = b - a; }
        return result;
    }
    """

    def test_diamond_becomes_select(self):
        module, manager = _assert_same_behaviour(
            self.SOURCE,
            [SimplifyCFG(), PromoteMemoryToRegisters(),
             IfConversion(IfConversionParams(max_speculated_instructions=8)),
             SimplifyCFG()],
            "f", [[5, 2], [2, 5], [3, 3]])
        function = module.get_function("f")
        metrics = function_metrics(function)
        assert metrics.conditional_branches == 0
        assert metrics.selects >= 1
        assert manager.stats.branches_converted == 1

    def test_threshold_limits_speculation(self):
        source = """
        int f(int a) {
            int r;
            if (a > 0) { r = a * a * a * a * a * a; } else { r = 0; }
            return r;
        }
        """
        module, manager = _optimize(
            source, [SimplifyCFG(), PromoteMemoryToRegisters(),
                     IfConversion(IfConversionParams(
                         max_speculated_instructions=1))])
        assert manager.stats.branches_converted == 0

    def test_stores_are_never_speculated(self):
        source = """
        int f(int *p, int a) {
            if (a > 0) { *p = a; }
            return a;
        }
        """
        module, manager = _optimize(
            source, [SimplifyCFG(), PromoteMemoryToRegisters(),
                     IfConversion(IfConversionParams(
                         max_speculated_instructions=100))])
        assert manager.stats.branches_converted == 0

    def test_guarded_variable_index_load_not_speculated(self):
        # Speculating buffer[k] past the `k >= 0` guard would introduce an
        # out-of-bounds read (this was a real regression caught by the sort
        # workload).
        source = """
        unsigned char table[4];
        int f(int k) {
            int value = 0;
            if (k >= 0 && k < 4) { value = table[k]; }
            return value;
        }
        """
        module, _ = _optimize(
            source, [SimplifyCFG(), PromoteMemoryToRegisters(),
                     IfConversion(IfConversionParams(
                         max_speculated_instructions=100)),
                     SimplifyCFG()])
        result = Interpreter(module).run_function("f", [(-5) & 0xFFFFFFFF])
        assert not result.crashed
        assert result.return_value == 0

    def test_triangle_conversion(self):
        source = """
        int f(int a) {
            int r = 0;
            if (a > 10) { r = a; }
            return r;
        }
        """
        module, manager = _assert_same_behaviour(
            source, [SimplifyCFG(), PromoteMemoryToRegisters(),
                     IfConversion(IfConversionParams(
                         max_speculated_instructions=4)), SimplifyCFG()],
            "f", [[3], [30]])
        assert manager.stats.branches_converted == 1


def _i64(value):
    return ConstantInt(I64, value)


def _phi_of_a(entry, guarded, env):
    phi = guarded.phi(I32)
    phi.add_incoming(env.a, env.pred)
    return phi


#: (candidate, builds it, what ``is_speculatable`` answers).  A builder
#: gets an IRBuilder before the guard (``entry``), one in the guarded block
#: and the function's values; addresses are built before the guard.
SPECULATION_TABLE = [
    ("store", lambda entry, guarded, env: guarded.store(env.a, env.scalar),
     False),
    ("call", lambda entry, guarded, env: guarded.call(env.ext, [env.a]),
     False),
    ("phi", _phi_of_a, False),
    ("terminator", lambda entry, guarded, env: guarded.br(env.next), False),
    ("sdiv", lambda entry, guarded, env: guarded.sdiv(env.a, env.b), False),
    ("udiv", lambda entry, guarded, env: guarded.udiv(env.a, env.b), False),
    ("srem", lambda entry, guarded, env: guarded.srem(env.a, env.b), False),
    ("urem", lambda entry, guarded, env: guarded.urem(env.a, env.b), False),
] + [
    (f"load of {base} {where}",
     lambda entry, guarded, env, attr=attr, offset=offset: guarded.load(
         entry.gep(getattr(env, attr), [offset(env)], I32)),
     allowed)
    for base, attr in (("an alloca", "array"), ("a global", "table"))
    for where, offset, allowed in (
        ("in bounds", lambda env: _i64(12), True),
        ("out of bounds", lambda env: _i64(16), False),
        ("at a negative offset", lambda env: _i64(-4), False),
        ("at a variable offset", lambda env: env.k, False))
] + [
    ("load through an argument",
     lambda entry, guarded, env: guarded.load(env.p), False),
    ("add", lambda entry, guarded, env: guarded.add(env.a, env.b), True),
]


def _speculation_function():
    """``f(i32 a, i32 b, i64 k, i32* p)`` with a 4 x i32 stack slot, an
    i32 stack slot, a 4 x i32 global and a declared ``ext``; returns the
    module, the function, an IRBuilder at the end of its entry block and
    the values a table entry may use."""
    module = Module("t")
    table = module.add_global("table", ArrayType(I32, 4))
    ext = module.create_function("ext", FunctionType(I32, (I32,)))
    function = module.create_function("f", FunctionType(
        I32, (I32, I32, I64, PointerType(I32))))
    function.append_block(BasicBlock("entry"))
    entry = IRBuilder(function.entry_block)
    a, b, k, p = function.arguments
    env = types.SimpleNamespace(
        a=a, b=b, k=k, p=p, ext=ext, table=table,
        array=entry.alloca(ArrayType(I32, 4)), scalar=entry.alloca(I32),
        next=None, pred=None)
    return module, function, entry, env


def _new_block(function, name):
    block = BasicBlock(name)
    function.append_block(block)
    return block, IRBuilder(block)


def _speculated_by_ifconvert(build):
    """Build ``if (a != 0) { candidate }`` and run ifconvert: did the
    candidate move above the branch?"""
    module, function, entry, env = _speculation_function()
    arm, arm_builder = _new_block(function, "arm")
    join, join_builder = _new_block(function, "join")
    env.next, env.pred = join, function.entry_block
    guard = entry.icmp_ne(env.a, ConstantInt(I32, 0))
    candidate = build(entry, arm_builder, env)
    entry.cond_br(guard, arm, join)
    if arm.terminator is None:
        arm_builder.br(join)
    join_builder.ret(ConstantInt(I32, 0))
    IfConversion(IfConversionParams(max_speculated_instructions=8)) \
        .run_on_module(module)
    return candidate.parent is function.entry_block


def _hoisted_by_licm(build):
    """Build a four-trip loop whose body holds the candidate and nothing
    else but the induction step, and run licm: did the candidate leave the
    loop?"""
    module, function, entry, env = _speculation_function()
    header, header_builder = _new_block(function, "header")
    body, body_builder = _new_block(function, "body")
    exit_block, exit_builder = _new_block(function, "exit")
    env.next, env.pred = header, header
    index = header_builder.phi(I64)
    header_builder.cond_br(
        header_builder.icmp(ICmpPredicate.SLT, index, _i64(4)),
        body, exit_block)
    step = body_builder.add(index, _i64(1))
    candidate = build(entry, body_builder, env)
    if body.terminator is None:
        body_builder.br(header)
    index.add_incoming(_i64(0), function.entry_block)
    index.add_incoming(step, body)
    entry.br(header)
    exit_builder.ret(ConstantInt(I32, 0))
    LoopInvariantCodeMotion().run_on_module(module)
    return candidate.parent not in (body, header, None)


class TestSpeculationRule:
    """``is_speculatable`` (analysis/alias.py) is the one rule for moving
    an instruction to where it might not have run: ifconvert speculates,
    and licm hoists, exactly the instructions it allows."""

    @pytest.mark.parametrize(
        "build, allowed",
        [(build, allowed) for _, build, allowed in SPECULATION_TABLE],
        ids=[name for name, _, _ in SPECULATION_TABLE])
    def test_passes_move_what_the_rule_allows(self, build, allowed):
        module, function, entry, env = _speculation_function()
        guarded, guarded_builder = _new_block(function, "guarded")
        env.next, env.pred = guarded, function.entry_block
        assert is_speculatable(build(entry, guarded_builder, env)) is allowed
        assert _speculated_by_ifconvert(build) is allowed
        assert _hoisted_by_licm(build) is allowed


class TestLoopTransforms:
    def test_licm_hoists_invariant_computation(self):
        source = """
        int f(int a, int b, int n) {
            int total = 0;
            for (int i = 0; i < n; i++) {
                total += a * b;
            }
            return total;
        }
        """
        module, manager = _assert_same_behaviour(
            source, [SimplifyCFG(), PromoteMemoryToRegisters(),
                     ConstantPropagation(), InstCombine(),
                     LoopInvariantCodeMotion()],
            "f", [[2, 3, 4], [5, 5, 0]])
        assert manager.stats.instructions_hoisted >= 1
        function = module.get_function("f")
        loop = LoopInfo(function).loops[0]
        muls_in_loop = [i for b in loop.blocks for i in b.instructions
                        if i.opcode.value == "mul"]
        assert not muls_in_loop

    def test_unswitching_duplicates_loop(self):
        source = """
        int f(unsigned char *s, int flag) {
            int count = 0;
            for (int i = 0; s[i]; i++) {
                if (flag) { count += 2; } else { count += 1; }
            }
            return count;
        }
        """
        module = compile_to_ir(source)
        manager = PassManager(verify_after_each=True)
        manager.extend([SimplifyCFG(), PromoteMemoryToRegisters(),
                        ConstantPropagation(), InstCombine(),
                        DeadCodeElimination(), SimplifyCFG(),
                        LoopUnswitching(UnswitchParams(max_loop_size=200)),
                        SimplifyCFG()])
        manager.run(module)
        assert manager.stats.loops_unswitched == 1
        function = module.get_function("f")
        assert len(LoopInfo(function).loops) == 2
        # Behaviour check through the interpreter with a real string.
        interp = Interpreter(module)
        address = interp.allocate_buffer(b"abcd\x00")
        assert interp.run_function("f", [address, 1]).return_value == 8
        interp2 = Interpreter(module)
        address2 = interp2.allocate_buffer(b"abcd\x00")
        assert interp2.run_function("f", [address2, 0]).return_value == 4

    def test_full_unrolling_of_constant_loop(self):
        source = """
        int f(int a) {
            int total = 0;
            for (int i = 0; i < 5; i++) { total += a; }
            return total;
        }
        """
        module, manager = _assert_same_behaviour(
            source,
            [SimplifyCFG(), PromoteMemoryToRegisters(), ConstantPropagation(),
             InstCombine(), DeadCodeElimination(), SimplifyCFG(),
             LoopUnrolling(UnrollParams(max_trip_count=8)),
             ConstantPropagation(), InstCombine(), DeadCodeElimination(),
             SimplifyCFG()],
            "f", [[3], [0]])
        assert manager.stats.loops_unrolled == 1
        function = module.get_function("f")
        assert len(LoopInfo(function).loops) == 0

    def test_unrolling_respects_trip_count_limit(self):
        source = """
        int f(int a) {
            int total = 0;
            for (int i = 0; i < 100; i++) { total += a; }
            return total;
        }
        """
        module, manager = _optimize(
            source, [SimplifyCFG(), PromoteMemoryToRegisters(),
                     ConstantPropagation(), InstCombine(),
                     LoopUnrolling(UnrollParams(max_trip_count=8))])
        assert manager.stats.loops_unrolled == 0

    def test_jump_threading_over_phi_of_constants(self):
        source = """
        int f(int a) {
            int flag;
            if (a > 0) { flag = 1; } else { flag = 0; }
            if (flag) { return 10; }
            return 20;
        }
        """
        module, manager = _assert_same_behaviour(
            source, [SimplifyCFG(), PromoteMemoryToRegisters(),
                     ConstantPropagation(), InstCombine(),
                     JumpThreading(), SimplifyCFG(), DeadCodeElimination()],
            "f", [[5], [0], [-1 & 0xFFFFFFFF]])
        assert manager.stats.jumps_threaded >= 1


class TestAbandonedAttemptsEditNothing:
    """A pass edits the module only once it commits to a transformation.
    An attempt it gives up must leave the printed module as it was and
    report no change; otherwise the next cleanup pass undoes the leftover
    and the pipeline never reaches its fixpoint."""

    @staticmethod
    def _prepared(source):
        module = compile_to_ir(source)
        manager = PassManager()
        manager.extend([SimplifyCFG(), PromoteMemoryToRegisters(),
                        InstCombine(), DeadCodeElimination(), SimplifyCFG()])
        manager.run(module)
        return module

    @staticmethod
    def _assert_edits_nothing(module, pass_):
        before = print_module(module)
        manager = PassManager(verify_after_each=True)
        manager.add(pass_)
        assert not manager.run(module)
        assert print_module(module) == before

    @staticmethod
    def _only_loop(module):
        loop, = LoopInfo(module.get_function("f")).loops
        # Each attempt below would need a preheader, and gives up after
        # the point where one used to be made.
        assert loop.preheader() is None
        return loop

    def test_licm_with_nothing_to_hoist(self):
        module = self._prepared("""
        int f(int n) {
            int s = 0;
            if (n) {
                for (int i = 0; i < n; i++) { s = s + i; }
            }
            return s;
        }
        """)
        self._only_loop(module)
        self._assert_edits_nothing(module, LoopInvariantCodeMotion())

    def test_unroll_without_a_single_exit_block(self):
        # A two-exit loop has no trip count, so unrolling gives up before
        # it looks for a preheader.  This counted loop has one exit block,
        # but the block is also entered from outside the loop.
        module = self._prepared("""
        int f(int n) {
            int s = 0;
            if (n) {
                for (int i = 0; i < 4; i++) { s = s + i; }
            }
            return s;
        }
        """)
        assert single_exit_block(self._only_loop(module)) is None
        self._assert_edits_nothing(
            module, LoopUnrolling(UnrollParams(max_trip_count=8)))

    def test_unswitch_of_a_two_exit_loop(self):
        module = self._prepared("""
        int f(int n, int k) {
            int s = 0;
            if (n) {
                for (int i = 0; i < n; i++) {
                    if (k) { s = s + 1; } else { s = s + 2; }
                    if (s > 100) { return s; }
                }
            }
            return s;
        }
        """)
        assert len(self._only_loop(module).exit_blocks()) == 2
        self._assert_edits_nothing(
            module, LoopUnswitching(UnswitchParams(max_loop_size=200)))

    def test_lcssa_when_a_later_escaping_value_fails_dominance(self):
        # `t` leaves the loop through the exit phi both as the header's
        # phi, which dominates both exiting blocks, and as `i * 3`, which
        # does not dominate the header; the header phi comes first.
        module = self._prepared("""
        int f(int n) {
            int i = 0;
            int t = 0;
            while (i < n) {
                t = i * 3;
                if (t > 50) { break; }
                i = i + 1;
            }
            return i + t;
        }
        """)
        function = module.get_function("f")
        loop, = LoopInfo(function).loops
        exit_block = single_exit_block(loop)
        before = print_module(module)
        assert not insert_lcssa_phis(loop, exit_block, DominatorTree(function))
        assert print_module(module) == before

    def test_runtime_checks_when_every_access_is_safe(self):
        module = compile_to_ir("""
        int f(int a) {
            int buffer[4];
            buffer[1] = a;
            return buffer[1];
        }
        """)
        self._assert_edits_nothing(module, InsertRuntimeChecks())
        assert module.get_function_or_none("__overify_check_fail") is None


class TestChecksAndAnnotations:
    def test_runtime_checks_inserted_for_unproven_pointers(self):
        source = "int f(int *p) { return *p; }"
        module, manager = _optimize(source, [SimplifyCFG(),
                                             InsertRuntimeChecks()])
        assert manager.stats.checks_inserted >= 1
        assert module.get_function_or_none("__overify_check_fail") is not None
        # Dereferencing a null pointer now reaches the check-failure hook.
        result = Interpreter(module).run_function("f", [0])
        assert result.crashed
        assert "check" in str(result.error) or "null" in str(result.error)

    def test_checks_not_duplicated_on_second_run(self):
        source = "int f(int *p) { return *p; }"
        module, _ = _optimize(source, [InsertRuntimeChecks()])
        manager = PassManager()
        manager.add(InsertRuntimeChecks())
        manager.run(module)
        assert manager.stats.checks_inserted == 0

    def test_valid_pointer_still_works_with_checks(self):
        source = "int f(int *p) { return *p + 1; }"
        module, _ = _optimize(source, [InsertRuntimeChecks()])
        interp = Interpreter(module)
        address = interp.allocate_buffer((41).to_bytes(4, "little"))
        assert interp.run_function("f", [address]).return_value == 42

    def test_annotation_pass_adds_ranges_and_trip_counts(self):
        source = """
        int f(unsigned char c) {
            int total = 0;
            for (int i = 0; i < 6; i++) { total += c; }
            return total;
        }
        """
        module, manager = _optimize(
            source, [SimplifyCFG(), PromoteMemoryToRegisters(),
                     ConstantPropagation(), InstCombine(),
                     AnnotateForVerification()])
        assert manager.stats.annotations_added > 0
        function = module.get_function("f")
        assert function.metadata.get("annotated_for_verification")
        has_trip_count = any("trip_count" in inst.metadata
                             for inst in function.instructions())
        assert has_trip_count


class TestPassManager:
    def test_stats_accumulate_across_passes(self):
        source = "int f(int a) { int x = 1 + 2; return a + x; }"
        module = compile_to_ir(source)
        manager = PassManager()
        manager.extend([SimplifyCFG(), PromoteMemoryToRegisters(),
                        ConstantPropagation()])
        manager.run(module)
        stats = manager.stats.as_dict()
        assert stats["allocas_promoted"] >= 2
        assert len(manager.history) == 3

    def test_run_until_fixpoint_stops(self):
        source = "int f(int a) { return a; }"
        module = compile_to_ir(source)
        manager = PassManager()
        manager.add(DeadCodeElimination())
        manager.run_until_fixpoint(module)
        # DCE has nothing to do the second time round, so only a couple of
        # records exist, far fewer than the round cap allows.
        assert len(manager.history) <= 3 < ROUND_CAP

    def test_transform_stats_merge_and_table3_row(self):
        stats = TransformStats(functions_inlined=2)
        other = TransformStats(functions_inlined=3, loops_unrolled=1)
        stats.merge(other)
        assert stats.functions_inlined == 5
        assert stats.table3_row()["loops_unrolled"] == 1

    def test_verification_after_each_pass_catches_breakage(self):
        class BreakingPass(SimplifyCFG):
            name = "breaker"

            def run_on_function(self, function, analyses):
                if not function.is_declaration and function.blocks:
                    # Remove the terminator: structurally invalid.
                    term = function.entry_block.terminator
                    if term is not None:
                        term.erase_from_parent()
                return True

        module = compile_to_ir("int f() { return 1; }")
        manager = PassManager(verify_after_each=True)
        manager.add(BreakingPass())
        with pytest.raises(RuntimeError, match="verification failed"):
            manager.run(module)
