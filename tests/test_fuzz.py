"""Tests for the differential fuzzer and the bugs it found.

Four groups:

* generator determinism — same seed must mean byte-identical output,
  across processes and under ``PYTHONHASHSEED`` variation;
* minimizer behavior — rendering round-trips, and a seeded divergence
  shrinks to a bounded statement count;
* oracle plumbing — a clean seed reports clean, a planted semantic
  divergence is caught;
* regression locks for the fuzzer's findings: the jump-threading
  dominance bug (seed 15), the DCE trapping-division bug (seed 1), the
  float-rounded 64-bit signed division, and the ``not_expr`` xor
  operand-order rewrite.
"""

import dataclasses
import itertools
import subprocess
import sys

import pytest

from repro.frontend import parse
from repro.fuzz import (
    GeneratorConfig, check_source, generate_program, minimize_source,
)
from repro.fuzz.minimize import count_statements
from repro.fuzz.oracle import NAIVE_SOLVER_CONFIG, OracleConfig
from repro.fuzz.render import render_program
from repro.interp.interpreter import run_module
from repro.ir import verify_module, verify_ssa_dominance
from repro.pipelines.levels import OptLevel
from repro.pipelines.session import CompilerSession

from conftest import compile_program
from repro.symex.executor import SymexLimits, explore
from repro.symex.solver import SolverConfig
from repro.workloads import get_workload

QUICK_ORACLE = OracleConfig(
    max_paths=48, max_instructions=200_000, max_forks=512,
    timeout_seconds=5.0, interp_max_steps=200_000,
    check_solver_matrix=False, query_deadline_seconds=0.5)


# --------------------------------------------------------------- generator
def test_generator_deterministic_in_process():
    for seed in (0, 1, 7, 23):
        assert generate_program(seed) == generate_program(seed)


def test_generator_seeds_differ():
    assert generate_program(0) != generate_program(1)


def test_generator_config_changes_output():
    small = GeneratorConfig(input_bytes=2, allow_structs=False)
    assert generate_program(3, small) != generate_program(3)


def test_generator_deterministic_across_hash_seeds():
    """Byte-identical output under different PYTHONHASHSEED values: the
    generator must not depend on set/dict iteration order or hash()."""
    script = ("import sys; sys.path.insert(0, 'src'); "
              "from repro.fuzz import generate_program; "
              "sys.stdout.write(generate_program(11))")
    outputs = set()
    for hash_seed in ("0", "1", "12345"):
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1


def test_generated_programs_compile_at_every_level():
    for seed in range(8):
        source = generate_program(seed)
        for level in OptLevel:
            module = compile_program(source, level)
            verify_module(module)
            verify_ssa_dominance(module)


# --------------------------------------------------------------- renderer
def test_render_round_trip_is_stable():
    for seed in range(6):
        source = generate_program(seed)
        once = render_program(parse(source))
        twice = render_program(parse(once))
        assert once == twice


# --------------------------------------------------------------- minimizer
def test_minimizer_converges_to_small_reproducer():
    """A planted divergence predicate shrinks below a fixed statement
    bound, regardless of the surrounding generated noise."""
    source = generate_program(2)
    # Interesting = "still contains a modulo operation" — a stand-in for
    # a real divergence predicate with known minimal form.
    def has_modulo(candidate):
        return "%" in candidate

    assert has_modulo(source)
    result = minimize_source(source, has_modulo)
    assert has_modulo(result.minimized_source)
    assert result.reduced
    assert count_statements(result.minimized_source) <= 5


def test_minimizer_keeps_predicate_and_compiles():
    source = generate_program(4)

    def mentions_input(candidate):
        return "input[" in candidate

    result = minimize_source(source, mentions_input)
    assert mentions_input(result.minimized_source)
    compile_program(result.minimized_source, OptLevel.O0)  # must not raise


# ----------------------------------------------------------------- oracle
def test_oracle_clean_on_trivial_program():
    source = """
int main(unsigned char *input, int len) {
    if (input[0] == 'x') { return 1; }
    return 0;
}
"""
    outcome = check_source(source, GeneratorConfig(input_bytes=2),
                           QUICK_ORACLE)
    assert outcome.clean, [d.describe() for d in outcome.divergences]
    assert not outcome.truncated


def test_oracle_catches_planted_compile_divergence():
    # A program no level can compile: the oracle must report it for every
    # level rather than crash.
    outcome = check_source("int main(unsigned char *input, int len) "
                           "{ return undeclared_fn(1); }",
                           GeneratorConfig(input_bytes=2), QUICK_ORACLE)
    assert not outcome.clean
    assert all(d.kind == "compile" for d in outcome.divergences)


def test_oracle_reports_a_compile_stopped_at_the_round_cap(monkeypatch):
    """A level whose last round still changed the module has passes that
    undo each other.  With a one-round cap every level whose first round
    changes something looks like that, and must be reported as such."""
    from repro.passes import pass_manager

    source = "int main(unsigned char *input, int len) { return len; }"
    assert check_source(source, GeneratorConfig(input_bytes=1),
                        QUICK_ORACLE).clean
    monkeypatch.setattr(pass_manager, "ROUND_CAP", 1)
    outcome = check_source(source, GeneratorConfig(input_bytes=1),
                           QUICK_ORACLE)
    details = [d.detail for d in outcome.divergences]
    assert details and all(d.kind == "compile" for d in outcome.divergences)
    assert any(detail.startswith("-OVERIFY stopped at the round cap")
               for detail in details), details


def test_minimize_only_compiles_for_a_compile_divergence(monkeypatch):
    """When every divergence kind to keep is "compile", the compiles alone
    decide a candidate: minimizing one must explore nothing."""
    from repro.fuzz import cli, oracle
    from repro.passes import pass_manager

    generator = GeneratorConfig(input_bytes=1)
    monkeypatch.setattr(pass_manager, "ROUND_CAP", 1)
    outcome = check_source(generate_program(0, generator), generator,
                           QUICK_ORACLE, seed=0)
    assert outcome.divergences and \
        all(d.kind == "compile" for d in outcome.divergences)

    def explore(*args, **kwargs):
        raise AssertionError("minimizing a compile divergence explored")

    monkeypatch.setattr(oracle, "explore", explore)
    minimized, before, after = cli._minimize_outcome(outcome, generator,
                                                     QUICK_ORACLE)
    assert after < before
    assert oracle.check_compiles(minimized).divergences


# ------------------------------------------ oracle family 5: solver matrix
def test_solver_matrix_holds_distinct_configs():
    """Family 5 differences the default solver against every matrix entry:
    three configurations, no two alike, the naive one with every
    switchable layer off."""
    configs = [SolverConfig()] + [config for _name, config
                                  in OracleConfig().solver_matrix]
    assert len(configs) == 3
    assert all(a != b for a, b in itertools.combinations(configs, 2))
    assert NAIVE_SOLVER_CONFIG == SolverConfig(cache=False,
                                               rewrite_equalities=False)


def test_solver_matrix_family_clean_on_clean_seed():
    source = """
int main(unsigned char *input, int len) {
    int total = 0;
    if (input[0] == 'a') { total = total + 3; }
    if (input[1] < input[0]) { total = total + 1; }
    return total;
}
"""
    oracle = dataclasses.replace(QUICK_ORACLE, check_solver_matrix=True)
    outcome = check_source(source, GeneratorConfig(input_bytes=2), oracle)
    assert outcome.clean, [d.describe() for d in outcome.divergences]
    assert not outcome.truncated


# ------------------------------------------- oracle family 6: relcheck

_RELCHECK_ORACLE = OracleConfig(
    max_paths=48, max_instructions=200_000, max_forks=512,
    timeout_seconds=5.0, interp_max_steps=200_000,
    check_solver_matrix=False, query_deadline_seconds=0.5,
    check_relcheck=True)

_TRAP_DELETION_SOURCE = """
int main(unsigned char *input, int len) {
    int t = 100 / input[0];
    return 7;
}
"""


def test_relcheck_family_clean_on_clean_seed():
    """A correct compiler plus ``--relcheck``: the proof succeeds and the
    seed stays clean."""
    source = generate_program(3, GeneratorConfig(input_bytes=2))
    outcome = check_source(source, GeneratorConfig(input_bytes=2),
                           _RELCHECK_ORACLE)
    assert outcome.clean, [d.describe() for d in outcome.divergences]


def test_relcheck_family_flags_planted_miscompile(monkeypatch):
    """Break the -OVERIFY pipeline with the unsafe-DCE knob: family 6
    must flag the deleted trap as a ``relcheck`` divergence carrying the
    concrete counterexample, and minimization must preserve the kind."""
    from repro.pipelines import levels as levels_mod

    monkeypatch.setitem(levels_mod.LEVEL_PIPELINES, OptLevel.OVERIFY,
                        "mem2reg,dce<unsafe-traps>")
    generator = GeneratorConfig(input_bytes=1)
    outcome = check_source(_TRAP_DELETION_SOURCE, generator,
                           _RELCHECK_ORACLE)
    assert not outcome.clean
    relcheck_divergences = [d for d in outcome.divergences
                            if d.kind == "relcheck"]
    assert relcheck_divergences, [d.describe() for d in outcome.divergences]
    assert "(input " in relcheck_divergences[0].detail

    def still_diverges(candidate):
        result = check_source(candidate, generator, _RELCHECK_ORACLE)
        return any(d.kind == "relcheck" for d in result.divergences)

    minimized = minimize_source(_TRAP_DELETION_SOURCE, still_diverges)
    assert still_diverges(minimized.minimized_source)
    assert (count_statements(minimized.minimized_source)
            <= count_statements(_TRAP_DELETION_SOURCE))


def test_relcheck_family_off_by_default():
    """Without the opt-in the product driver must not run: the planted
    miscompile is still caught by the cheaper families, but never with
    kind ``relcheck``."""
    outcome = check_source(_TRAP_DELETION_SOURCE,
                           GeneratorConfig(input_bytes=1), QUICK_ORACLE)
    assert all(d.kind != "relcheck" for d in outcome.divergences)


def test_fuzz_cli_starts_no_more_workers_than_seeds(monkeypatch, capsys):
    """``--jobs`` caps the worker processes; a run never starts more
    than it has seeds.  The pool is a stand-in, so no process starts."""
    import multiprocessing

    from repro.fuzz import cli
    from repro.fuzz.oracle import SeedOutcome

    started = []

    class CountingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def imap(self, function, tasks, chunksize=1):
            return map(function, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", CountingPool)
    monkeypatch.setattr(cli, "check_seed",
                        lambda seed, generator, oracle: SeedOutcome(seed, ""))
    assert cli.fuzz_main(["--seeds", "3", "--jobs", "64"]) == 0
    assert started == [3]
    assert "fuzz: 3 seed(s), 3 clean" in capsys.readouterr().out


# ------------------------------------------------- finding: jump threading
def test_jump_threading_loop_phi_regression():
    """Seed 15: threading past a loop's test block whose counter phi is
    incremented in the body broke dominance, and the compile later hung.
    Now: compiles at every level and the result is dominance-valid."""
    workload = get_workload("fuzz-jump-thread-loop-phi")
    for level in OptLevel:
        module = compile_program(workload.source, level)
        verify_module(module)
        verify_ssa_dominance(module)


def test_full_seed15_compiles_everywhere():
    source = generate_program(15)
    for level in OptLevel:
        verify_ssa_dominance(compile_program(source, level))


# ------------------------------------------ finding: cloning a cut-off arm
def test_unswitch_clone_drops_phi_entries_of_cut_off_arms():
    """Seeds 326 and 896: -OVERIFY unswitched an inner loop, which left the
    arm it cut off unreachable but still branching into the loop, and then
    unswitched the enclosing loop.  The clone's phis kept the dead arm's
    entries though the arm branches to the original alone, and the module
    failed verification."""
    for seed in (326, 896):
        verify_ssa_dominance(
            compile_program(generate_program(seed), OptLevel.OVERIFY))


def test_dominance_verifier_rejects_broken_ssa():
    from repro.ir import (
        BasicBlock, ConstantInt, Function, FunctionType, ICmpPredicate,
        IRBuilder, IntType, Module, VerificationError,
    )

    i32 = IntType(32)
    module = Module("m")
    function = Function("f", FunctionType(i32, [i32]))
    module.add_function(function)
    (arg,) = function.arguments
    entry = function.append_block(BasicBlock("entry"))
    left = function.append_block(BasicBlock("left"))
    right = function.append_block(BasicBlock("right"))
    join = function.append_block(BasicBlock("join"))
    builder = IRBuilder()
    builder.set_insert_point(entry)
    cond = builder.icmp(ICmpPredicate.EQ, arg, ConstantInt(i32, 0))
    builder.cond_br(cond, left, right)
    builder.set_insert_point(left)
    value = builder.add(arg, ConstantInt(i32, 1))
    builder.br(join)
    builder.set_insert_point(right)
    builder.br(join)
    builder.set_insert_point(join)
    # `value` is defined only on the left path: not a dominating def.
    builder.ret(builder.add(value, ConstantInt(i32, 3)))
    with pytest.raises(VerificationError):
        verify_ssa_dominance(module)


# --------------------------------------------- finding: DCE trapping div
def test_unused_division_keeps_trap_at_every_level():
    """Seed 1: SCCP proved the division's user constant, DCE then deleted
    the unused division — and with it the division-by-zero trap."""
    workload = get_workload("fuzz-dce-trapping-div")
    trap_input = b"\x00\x00\x00"
    for level in OptLevel:
        module = compile_program(workload.source, level)
        result = run_module(module, trap_input, max_steps=200_000)
        assert result.error is not None, str(level)
        assert result.error.kind.value == "division by zero", str(level)


def test_dce_still_removes_safe_divisions():
    # A division by a nonzero constant with an unused result must still
    # disappear: the trap-preservation fix must not pin safe divisions.
    source = """
int main(unsigned char *input, int len) {
    int x = input[0] / 7;
    return 3;
}
"""
    module = compile_program(source, OptLevel.O2)
    text = str(module)
    assert "div" not in text, text


def test_division_by_zero_symex_matches_interp():
    source = """
int main(unsigned char *input, int len) {
    return 100 / input[0];
}
"""
    for level in OptLevel:
        module = compile_program(source, level)
        report = explore(module, 1, limits=SymexLimits(
            max_paths=16, max_instructions=50_000, max_forks=64,
            timeout_seconds=10))
        kinds = {bug.kind.value for bug in report.bugs}
        assert kinds == {"division by zero"}, str(level)
        (bug,) = [b for b in report.bugs]
        replay = run_module(module, bug.test_input, max_steps=50_000)
        assert replay.error is not None
        assert replay.error.kind.value == "division by zero"


# ------------------------------------------- finding: 64-bit sdiv rounding
def test_wide_signed_division_is_exact():
    workload = get_workload("fuzz-sdiv-wide")
    big = (1 << 62) + 1
    q = big  # big / (1 | 1) == big, exactly — a float round trip loses it
    r = -(big % 10)  # C: (-big) % 10 takes the dividend's sign
    mask64 = (1 << 64) - 1
    reference = (((q & 0xFF) + ((r & mask64) & 0xFF)) & 0xFFFFFFFF)
    outcomes = set()
    for level in OptLevel:
        module = compile_program(workload.source, level)
        result = run_module(module, b"\x01ab", max_steps=100_000)
        assert result.error is None, str(level)
        outcomes.add(result.return_value & 0xFFFFFFFF)
    assert outcomes == {reference}


def test_eval_binary_sdiv_srem_truncate_toward_zero():
    from repro.ir import Opcode
    from repro.ir.builder import eval_binary
    from repro.ir.types import IntType

    i64 = IntType(64)
    mask = (1 << 64) - 1
    big = (1 << 62) + 1
    assert eval_binary(Opcode.SDIV, i64, big, 1) == big
    assert eval_binary(Opcode.SDIV, i64, (-7) & mask, 2) == (-3) & mask
    assert eval_binary(Opcode.SREM, i64, (-7) & mask, 2) == (-1) & mask
    assert eval_binary(Opcode.SREM, i64, 7, (-2) & mask) == 1
    assert eval_binary(Opcode.SDIV, i64, big, 0) is None


def test_symex_fold_matches_eval_binary_on_wide_division():
    import random

    from repro.ir import Opcode
    from repro.ir.builder import eval_binary
    from repro.ir.types import IntType
    from repro.symex.expr import ExprOp
    from repro.symex.simplify import binary, const

    i64 = IntType(64)
    rng = random.Random(99)
    pairs = [(ExprOp.SDIV, Opcode.SDIV), (ExprOp.SREM, Opcode.SREM),
             (ExprOp.UDIV, Opcode.UDIV), (ExprOp.UREM, Opcode.UREM)]
    for _ in range(200):
        lhs = rng.getrandbits(64)
        rhs = rng.getrandbits(64) | 1  # nonzero
        for expr_op, opcode in pairs:
            want = eval_binary(opcode, i64, lhs, rhs)
            got = binary(expr_op, const(64, lhs), const(64, rhs)).value
            assert got == want, (expr_op, lhs, rhs)


# --------------------------------------------- finding: not_expr xor order
def test_not_expr_collapses_xor_either_side():
    from repro.symex.expr import Expr, ExprOp
    from repro.symex.simplify import const, not_expr, var

    x = var(1, "b")
    canonical = Expr(ExprOp.XOR, 1, (x, const(1, 1)))
    flipped = Expr(ExprOp.XOR, 1, (const(1, 1), x))
    assert not_expr(canonical) is x
    assert not_expr(flipped) is x


def test_binary_canonicalizes_xor_constant_right():
    from repro.symex.expr import ExprOp
    from repro.symex.simplify import binary, const, var

    x = var(1, "b")
    built = binary(ExprOp.XOR, const(1, 1), x)
    assert built.operands[1].is_constant
