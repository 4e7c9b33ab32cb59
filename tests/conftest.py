"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.frontend import compile_to_ir
from repro.interp import Interpreter, run_module
from repro.passes import PassManager
from repro.pipelines import CompileOptions, OptLevel, compile_source
from repro.symex import ExecutionState


def compile_snippet(source: str):
    """Compile a MiniC snippet (no libc, no optimization) to an IR module."""
    return compile_to_ir(source)


def run_snippet(source: str, function: str, args):
    """Compile a snippet and concretely run one of its functions."""
    from repro.interp import Interpreter

    module = compile_to_ir(source)
    interpreter = Interpreter(module)
    return interpreter.run_function(function, args)


def run_at_level(source: str, level: OptLevel, input_bytes: bytes,
                 **options):
    """Compile a full program at ``level`` and run it on ``input_bytes``."""
    result = compile_source(source, CompileOptions(level=level, **options))
    return run_module(result.module, input_bytes)


@pytest.fixture(scope="session")
def all_levels():
    return [OptLevel.O0, OptLevel.O1, OptLevel.O2, OptLevel.O3,
            OptLevel.OVERIFY]


# ------------------------------------------------------- compile helpers
# One canonical copy of the compile-a-module helpers the backend, fuzz,
# determinism, relcheck, and pass suites all need (previously four
# per-file variants).

def compile_program(source: str, level: OptLevel = OptLevel.O2):
    """Compile arbitrary program source at ``level``, return the module."""
    from repro.pipelines.session import CompilerSession

    return CompilerSession().compile(source, level=level).module


def compile_workload_module(name: str, level: OptLevel = OptLevel.O1):
    """Compile a registry workload at ``level``, return the module.

    Workload sources use the verification libc; compile, don't just
    lower."""
    from repro.workloads import get_workload

    return compile_source(get_workload(name).source,
                          CompileOptions(level=level)).module


@pytest.fixture(scope="session")
def compiled_wc():
    """The wc workload compiled at -O2 (a CompilationResult)."""
    from repro.workloads import get_workload

    return compile_source(get_workload("wc").source, level=OptLevel.O2)


# -------------------------------------------------- pass-pipeline helpers

def optimize_snippet(source: str, passes):
    """Compile a MiniC snippet and run ``passes`` to fixpoint on it."""
    module = compile_to_ir(source)
    manager = PassManager(verify_after_each=True)
    manager.extend(passes)
    manager.run_until_fixpoint(module)
    return module, manager


def run_ir_function(module, name: str, args):
    """Concretely run one IR function, normalized to unsigned 32-bit."""
    value = Interpreter(module).run_function(name, args).return_value
    # A function reduced to `ret %a` passes the Python argument through
    # raw, while any arithmetic result comes back already wrapped.
    return value & 0xFFFFFFFF if isinstance(value, int) else value


def assert_same_behaviour(source: str, passes, name: str, argument_sets):
    """Optimized module must agree with the unoptimized one on every
    argument set; returns ``(module, manager)`` for further assertions."""
    baseline = compile_to_ir(source)
    expected = [run_ir_function(baseline, name, args)
                for args in argument_sets]
    module, manager = optimize_snippet(source, passes)
    assert [run_ir_function(module, name, args)
            for args in argument_sets] == expected
    return module, manager


# ------------------------------------------------------- solver helpers

def as_partition(constraints):
    """A flat constraint list as the query the engine would ask about it.

    The constraints go through ``ExecutionState.add_constraint`` (equality
    rewriting off), which splits them into variable-disjoint groups, and
    come back as the state's ``full_partition()``: the
    ``(variable-free constraints, [group, ...])`` pair that
    ``Solver.check_partition`` and ``Solver.model_for_partition`` take."""
    state = ExecutionState(rewrite_equalities=False)
    for constraint in constraints:
        state.add_constraint(constraint)
    return state.full_partition()


@pytest.fixture
def store_decodes(monkeypatch):
    """Every group constraint the knowledge store decodes from its wire
    form (``expr_from_wire``) while the test runs, in a list."""
    from repro.service import store as store_module

    decoded = []
    original = store_module.expr_from_wire

    def counted(nodes):
        decoded.append(nodes)
        return original(nodes)

    monkeypatch.setattr(store_module, "expr_from_wire", counted)
    return decoded
