"""The symbolic executor: a KLEE-style path-exploring interpreter for the
repro IR.

The executor treats designated input bytes as symbolic, interprets the
program one path at a time, forks at branches whose condition can go both
ways under the current path constraints, and reports every completed path
and every detected bug together with a concrete test input that triggers it.

Its performance characteristics deliberately mirror the paper's §4
description: "The performance of symbolic execution tools is determined by
the number of paths to explore and by the complexity of input-dependent
branch conditions."  Both quantities are measured and exposed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..faults import EngineError, site as _fault_site
from ..interp.errors import ErrorKind, ProgramError
from ..ir import (
    AllocaInst, Argument, BasicBlock, BinaryInst, BranchInst, CallInst,
    CastInst, ConstantArray, ConstantInt, Function, GEPInst, GlobalVariable,
    ICmpInst, ICmpPredicate, Instruction, IntType, LoadInst, Module, Opcode,
    PhiInst, PointerType, ReturnInst, SelectInst, StoreInst, SwitchInst,
    Type, UndefValue, UnreachableInst, Value,
)
from .expr import Expr, ExprOp
from .memory import SymbolicMemory
from .searcher import Searcher, make_searcher
from .simplify import binary, const, ite, not_expr, sext, trunc, var, zext
from .solver import Solver, SolverStats
from .state import ExecutionState, StackFrame, StateStatus

POINTER_WIDTH = 64

#: Fault site hit once per budget stride of the stepping loop
#: (``docs/robustness.md``).  Its faults — like any engine/solver
#: exception on a path — are contained as ``engine-error`` path outcomes.
_ENGINE_STEP = _fault_site("engine.step", EngineError)

_BINARY_OPS = {
    Opcode.ADD: ExprOp.ADD, Opcode.SUB: ExprOp.SUB, Opcode.MUL: ExprOp.MUL,
    Opcode.UDIV: ExprOp.UDIV, Opcode.SDIV: ExprOp.SDIV,
    Opcode.UREM: ExprOp.UREM, Opcode.SREM: ExprOp.SREM,
    Opcode.AND: ExprOp.AND, Opcode.OR: ExprOp.OR, Opcode.XOR: ExprOp.XOR,
    Opcode.SHL: ExprOp.SHL, Opcode.LSHR: ExprOp.LSHR, Opcode.ASHR: ExprOp.ASHR,
}


def _icmp_expr(predicate: ICmpPredicate, lhs: Expr, rhs: Expr) -> Expr:
    if predicate is ICmpPredicate.EQ:
        return binary(ExprOp.EQ, lhs, rhs)
    if predicate is ICmpPredicate.NE:
        return binary(ExprOp.NE, lhs, rhs)
    if predicate is ICmpPredicate.ULT:
        return binary(ExprOp.ULT, lhs, rhs)
    if predicate is ICmpPredicate.ULE:
        return binary(ExprOp.ULE, lhs, rhs)
    if predicate is ICmpPredicate.UGT:
        return binary(ExprOp.ULT, rhs, lhs)
    if predicate is ICmpPredicate.UGE:
        return binary(ExprOp.ULE, rhs, lhs)
    if predicate is ICmpPredicate.SLT:
        return binary(ExprOp.SLT, lhs, rhs)
    if predicate is ICmpPredicate.SLE:
        return binary(ExprOp.SLE, lhs, rhs)
    if predicate is ICmpPredicate.SGT:
        return binary(ExprOp.SLT, rhs, lhs)
    if predicate is ICmpPredicate.SGE:
        return binary(ExprOp.SLE, rhs, lhs)
    raise ValueError(f"unknown predicate {predicate}")


@dataclass
class SymexLimits:
    """Resource limits for one exploration run."""

    max_paths: int = 100_000
    max_instructions: int = 5_000_000
    max_forks: int = 100_000
    timeout_seconds: float = 3600.0
    max_call_depth: int = 128


#: Instructions executed between budget checks inside :meth:`_run_state`.
#: Budgets are approximate by nature (the paper's is a one-hour timeout);
#: checking on a stride keeps the per-instruction loop free of clock reads,
#: at the cost of overshooting a limit by at most the stride.
BUDGET_CHECK_STRIDE = 16


class ExplorationBudget:
    """The resource budget of one exploration run: the limits, read
    against the run's :class:`SymexStats` and its start time.

    A NaN timeout is refused: every ``elapsed > timeout`` comparison with
    NaN is false, so such a budget would never run out."""

    def __init__(self, limits: SymexLimits, stats: SymexStats) -> None:
        if math.isnan(limits.timeout_seconds):
            raise ValueError("timeout_seconds must be a number, got nan")
        self.limits = limits
        self._stats = stats
        self.start_time = time.perf_counter()

    def exhausted(self) -> Optional[str]:
        """The first exceeded limit ("paths", "instructions", "forks",
        "timeout"), or None while in budget."""
        stats = self._stats
        limits = self.limits
        if stats.paths_completed + stats.paths_errored \
                + stats.engine_errors >= limits.max_paths:
            return "paths"
        if stats.instructions_interpreted >= limits.max_instructions:
            return "instructions"
        if stats.forks >= limits.max_forks:
            return "forks"
        if time.perf_counter() - self.start_time > limits.timeout_seconds:
            return "timeout"
        return None


@dataclass
class BugReport:
    """A detected bug plus a concrete input that triggers it."""

    kind: ErrorKind
    message: str
    function: str
    block: str
    test_input: Optional[bytes] = None

    def signature(self) -> Tuple[str, str, str]:
        """A location-based identity used for cross-build bug comparison."""
        return (self.kind.value, self.function, self.block)


@dataclass
class PathRecord:
    """One fully explored path."""

    state_id: int
    status: StateStatus
    constraint_count: int
    instructions: int
    test_input: Optional[bytes] = None
    return_value: Optional[int] = None


@dataclass
class SymexStats:
    """Aggregate statistics of one exploration run (Table 1's columns)."""

    paths_completed: int = 0
    paths_errored: int = 0
    paths_terminated: int = 0
    instructions_interpreted: int = 0
    branches_encountered: int = 0
    forks: int = 0
    states_created: int = 1
    max_live_states: int = 0
    wall_seconds: float = 0.0
    timed_out: bool = False
    #: Paths abandoned because the *engine* (not the program under test)
    #: failed on them — a solver/interpreter exception contained by
    #: :meth:`SymbolicExecutor._run_state`.  Not part of ``total_paths``:
    #: an engine-error path was neither completed nor found buggy.
    engine_errors: int = 0
    #: Which budget limit ended the run ("paths", "instructions", "forks"
    #: or "timeout"); empty for a complete exploration.
    termination_reason: str = ""

    @property
    def total_paths(self) -> int:
        return self.paths_completed + self.paths_errored


@dataclass
class SymexReport:
    """Everything one run of the executor produces."""

    stats: SymexStats
    solver_stats: SolverStats
    paths: List[PathRecord] = field(default_factory=list)
    bugs: List[BugReport] = field(default_factory=list)
    #: One line per contained engine failure (fault site + cause); empty
    #: on a healthy run.
    diagnostics: List[str] = field(default_factory=list)

    def bug_signatures(self) -> set:
        return {bug.signature() for bug in self.bugs}


class SymbolicExecutor:
    """Explores every feasible path of a module's entry function.

    One executor runs one exploration loop (:meth:`run` or
    :meth:`run_seeded`) on the calling thread, and every caller (the
    symex backend and both relcheck phases) explores the same way: each
    branch, divisor and address check is one solver query over the
    state's constraint partition.  The only structure it may share with
    other executors is its solver's
    :class:`~repro.symex.solver.SharedSolverCaches`.
    """

    def __init__(self, module: Module, entry: str = "main",
                 searcher: Union[str, Searcher] = "dfs",
                 solver: Optional[Solver] = None,
                 limits: Optional[SymexLimits] = None,
                 state_sink: Optional[Callable[[ExecutionState], None]]
                 = None) -> None:
        self.module = module
        self.entry = module.get_function(entry)
        self.searcher = make_searcher(searcher) if isinstance(searcher, str) \
            else searcher
        self.solver = solver or Solver()
        self.limits = limits or SymexLimits()
        self.stats = SymexStats()
        self.report = SymexReport(stats=self.stats,
                                  solver_stats=self.solver.stats)
        self._globals: Dict[str, int] = {}
        self._input_variables: List[str] = []
        self._budget: Optional[ExplorationBudget] = None
        #: Optional observer handed every finished state (completed or
        #: errored, never engine-error states, which are mid-flight
        #: wreckage).  The relcheck product driver uses this to capture
        #: each path's constraints and symbolic return value — data the
        #: :class:`PathRecord` deliberately does not carry.
        self._state_sink = state_sink

    # --------------------------------------------------------------- setup
    def make_initial_state(self, num_input_bytes: int) -> ExecutionState:
        """Build the initial state: globals materialized, the entry function's
        ``(unsigned char *input, int len)`` parameters bound to a buffer of
        ``num_input_bytes`` symbolic bytes followed by a NUL terminator.

        Also (re)initializes this executor's globals map and input-variable
        list."""
        if num_input_bytes < 0:
            raise ValueError(f"symbolic input size must be >= 0, got "
                             f"{num_input_bytes}")
        state = ExecutionState(
            rewrite_equalities=self.solver.config.rewrite_equalities,
            solver_stats=self.solver.stats)
        self._initialize_globals(state.memory)

        buffer_address = state.memory.allocate(num_input_bytes + 1,
                                               name="symbolic_input")
        symbolic_bytes = []
        self._input_variables = []
        for i in range(num_input_bytes):
            name = f"in_{i}"
            self._input_variables.append(name)
            symbolic_bytes.append(var(8, name))
        symbolic_bytes.append(const(8, 0))
        state.memory.store_symbolic_bytes(buffer_address, symbolic_bytes)

        frame = StackFrame(self.entry)
        frame.block = self.entry.entry_block
        arguments = self.entry.arguments
        if arguments:
            frame.bind(id(arguments[0]), const(POINTER_WIDTH, buffer_address))
        if len(arguments) > 1:
            arg_type = arguments[1].type
            width = arg_type.width if isinstance(arg_type, IntType) else 32
            frame.bind(id(arguments[1]), const(width, num_input_bytes))
        for extra in arguments[2:]:
            width = extra.type.width if isinstance(extra.type, IntType) \
                else POINTER_WIDTH
            frame.bind(id(extra), const(width, 0))
        state.push_frame(frame)
        return state

    def _initialize_globals(self, memory: SymbolicMemory) -> None:
        self._globals = {}
        for gv in self.module.globals.values():
            size = gv.value_type.size_in_bytes()
            address = memory.allocate(size, name=gv.name, writable=True)
            if isinstance(gv.initializer, ConstantInt):
                memory.store(address, const(8 * size, gv.initializer.value),
                             size)
            elif isinstance(gv.initializer, ConstantArray):
                memory.store_concrete_bytes(address,
                                            gv.initializer.as_bytes())
            obj = memory.object_at(address)
            if obj is not None:
                obj.writable = not gv.is_constant
            self._globals[gv.name] = address

    # ----------------------------------------------------------------- run
    def run(self, num_input_bytes: int) -> SymexReport:
        """Exhaustively explore the entry function for the given symbolic
        input size (subject to the configured limits)."""
        self._budget = ExplorationBudget(self.limits, self.stats)
        return self._explore_from(self.make_initial_state(num_input_bytes))

    def run_seeded(self, state: ExecutionState) -> SymexReport:
        """Explore from a caller-prepared initial state.

        The caller builds the state with :meth:`make_initial_state` and
        may seed it with extra path constraints (``state.add_constraint``)
        before handing it over — the relcheck product driver replays the
        optimized module under another module's path condition this way,
        so branches the seeded condition decides never fork."""
        self._budget = ExplorationBudget(self.limits, self.stats)
        return self._explore_from(state)

    def _explore_from(self, initial: ExecutionState) -> SymexReport:
        self.searcher.add(initial)
        while not self.searcher.empty():
            if self._out_of_budget():
                break
            state = self.searcher.pop()
            self._run_state(state)
            self.stats.max_live_states = max(self.stats.max_live_states,
                                             len(self.searcher) + 1)
        # Anything left in the searcher when the budget ran out is terminated.
        while not self.searcher.empty():
            state = self.searcher.pop()
            state.status = StateStatus.TERMINATED
            self.stats.paths_terminated += 1
        self.stats.wall_seconds = time.perf_counter() - self._budget.start_time
        return self.report

    def _out_of_budget(self) -> bool:
        reason = self._budget.exhausted()
        if reason is None:
            return False
        if not self.stats.termination_reason:
            self.stats.termination_reason = reason
        if reason != "paths":
            self.stats.timed_out = True
        return True

    # ------------------------------------------------------------- stepping
    def _run_state(self, state: ExecutionState) -> None:
        """Run ``state`` until it forks, finishes, or hits an error —
        containing engine failures to the path they happened on.

        An exception out of the stepping core (a solver or interpreter
        defect, or an injected ``engine.step``/``solver.check`` fault) is
        an *engine* failure, not a program bug: the path is recorded as an
        ``engine-error`` outcome with a one-line diagnosis and exploration
        continues with the next state.  Exceptions outside
        :class:`Exception` (KeyboardInterrupt, SystemExit) pass through."""
        try:
            self._step_state(state)
        except Exception as exc:
            self._record_engine_error(state, exc)

    def _record_engine_error(self, state: ExecutionState,
                             exc: Exception) -> None:
        state.status = StateStatus.ENGINE_ERROR
        self.stats.engine_errors += 1
        site = getattr(exc, "site", None) or "engine"
        cause = f"{type(exc).__name__}: {exc}".splitlines()[0]
        self.report.diagnostics.append(f"engine-error at {site}: {cause}")
        # No test input: the path died inside the engine, so the solver
        # may be the very thing that failed — don't query it again here.
        self.report.paths.append(PathRecord(
            state_id=state.state_id,
            status=StateStatus.ENGINE_ERROR,
            constraint_count=len(state.constraints),
            instructions=state.instructions_executed,
        ))

    def _step_state(self, state: ExecutionState) -> None:
        """The stepping core: run ``state`` until it forks (pushing both
        sides), finishes, or hits an error."""
        # Every caller checks the budget right before handing us a state,
        # so the first in-loop check waits a full stride.
        budget_countdown = BUDGET_CHECK_STRIDE
        while state.status is StateStatus.RUNNING:
            budget_countdown -= 1
            if budget_countdown <= 0:
                budget_countdown = BUDGET_CHECK_STRIDE
                if _ENGINE_STEP.armed:
                    _ENGINE_STEP.fire()
                if self._out_of_budget():
                    state.status = StateStatus.TERMINATED
                    self.stats.paths_terminated += 1
                    return
            frame = state.frame
            block = frame.block
            assert block is not None
            if frame.index == 0:
                self._evaluate_phis(state, block)
                frame.index = len(block.phis())
            if frame.index >= len(block.instructions):
                state.status = StateStatus.ERROR
                self._record_error(state, ProgramError(
                    ErrorKind.UNREACHABLE_EXECUTED,
                    f"block {block.name} fell through"))
                return
            inst = block.instructions[frame.index]
            frame.index += 1
            state.instructions_executed += 1
            self.stats.instructions_interpreted += 1
            try:
                forked = self._execute(state, inst)
            except ProgramError as error:
                error.function = frame.function.name
                error.block = block.name
                self._record_error(state, error)
                return
            if forked:
                return  # both sides were handed to the searcher
        if state.status is StateStatus.COMPLETED:
            self._record_completed(state)

    def _evaluate_phis(self, state: ExecutionState, block: BasicBlock) -> None:
        phis = block.phis()
        if not phis:
            return
        frame = state.frame
        assert frame.previous_block is not None or not phis
        results: Dict[int, Expr] = {}
        for phi in phis:
            assert frame.previous_block is not None
            value = phi.incoming_value_for(frame.previous_block)
            results[id(phi)] = self._eval(state, value)
            self.stats.instructions_interpreted += 1
        frame.bind_many(results)

    # ---------------------------------------------------------- evaluation
    def _eval(self, state: ExecutionState, value: Value) -> Expr:
        # Fast path: by far most operands are SSA values already bound in
        # the current frame.  Ids of live objects are unique, so a
        # constant's id can never alias a binding key.
        expr = state.stack[-1].values.get(id(value))
        if expr is not None:
            return expr
        if isinstance(value, ConstantInt):
            ty = value.type
            assert isinstance(ty, IntType)
            return const(ty.width, value.value)
        if isinstance(value, UndefValue):
            width = value.type.size_in_bytes() * 8 \
                if not value.type.is_void else 32
            if isinstance(value.type, IntType):
                width = value.type.width
            return const(width, 0)
        if isinstance(value, GlobalVariable):
            return const(POINTER_WIDTH, self._globals[value.name])
        if isinstance(value, (Instruction, Argument)):
            return state.frame.values[id(value)]
        raise ProgramError(ErrorKind.UNKNOWN_FUNCTION,
                           f"cannot evaluate {value!r}")

    @staticmethod
    def _width_of(ty: Type) -> int:
        if isinstance(ty, IntType):
            return ty.width
        if isinstance(ty, PointerType):
            return POINTER_WIDTH
        return 8 * ty.size_in_bytes()

    # ------------------------------------------------------------ execute
    def _execute(self, state: ExecutionState, inst: Instruction) -> bool:
        """Execute one instruction; returns True if the state forked (and the
        successors were already queued).

        Dispatch is one dict lookup on the concrete instruction class
        (built once at class-definition time) instead of an isinstance
        chain — this is the hottest call in the interpreter loop."""
        handler = self._DISPATCH.get(type(inst))
        if handler is None:
            raise ProgramError(ErrorKind.UNKNOWN_FUNCTION,
                               f"cannot execute {inst.opcode.value}")
        return handler(self, state, inst) is True

    def _execute_icmp(self, state: ExecutionState, inst: ICmpInst) -> None:
        lhs = self._eval(state, inst.lhs)
        rhs = self._eval(state, inst.rhs)
        state.bind(inst, _icmp_expr(inst.predicate, lhs, rhs))

    def _execute_select(self, state: ExecutionState,
                        inst: SelectInst) -> None:
        condition = self._eval(state, inst.condition)
        then = self._eval(state, inst.true_value)
        otherwise = self._eval(state, inst.false_value)
        state.bind(inst, ite(condition, then, otherwise))

    def _execute_cast_inst(self, state: ExecutionState,
                           inst: CastInst) -> None:
        state.bind(inst, self._execute_cast(state, inst))

    def _execute_alloca(self, state: ExecutionState,
                        inst: AllocaInst) -> None:
        size = inst.allocated_type.size_in_bytes()
        address = state.memory.allocate(size, name=inst.name or "alloca")
        state.bind(inst, const(POINTER_WIDTH, address))

    def _execute_load(self, state: ExecutionState, inst: LoadInst) -> None:
        size = inst.type.size_in_bytes()
        address = self._concretize_address(state, inst.pointer, size)
        loaded = state.memory.load(address, size)
        width = self._width_of(inst.type)
        if loaded.width > width:
            loaded = trunc(loaded, width)
        elif loaded.width < width:
            loaded = zext(loaded, width)
        state.bind(inst, loaded)

    def _execute_store(self, state: ExecutionState, inst: StoreInst) -> None:
        size = inst.value.type.size_in_bytes()
        address = self._concretize_address(state, inst.pointer, size)
        value = self._eval(state, inst.value)
        if value.width < 8 * size:
            value = zext(value, 8 * size)
        state.memory.store(address, value, size)

    def _execute_gep(self, state: ExecutionState, inst: GEPInst) -> None:
        base = self._eval(state, inst.base)
        total = base
        for index in inst.indices:
            offset = self._eval(state, index)
            if offset.width < POINTER_WIDTH:
                offset = sext(offset, POINTER_WIDTH)
            elif offset.width > POINTER_WIDTH:
                offset = trunc(offset, POINTER_WIDTH)
            total = binary(ExprOp.ADD, total, offset)
        state.bind(inst, total)

    def _execute_unreachable(self, state: ExecutionState,
                             inst: UnreachableInst) -> None:
        raise ProgramError(ErrorKind.UNREACHABLE_EXECUTED, "")

    def _execute_phi_misplaced(self, state: ExecutionState,
                               inst: PhiInst) -> None:
        # Phis are evaluated at block entry; reaching one here means the
        # index bookkeeping is off.
        raise ProgramError(ErrorKind.UNREACHABLE_EXECUTED,
                           "phi executed out of order")

    # ----------------------------------------------------------- operators
    def _execute_binary(self, state: ExecutionState, inst: BinaryInst) -> None:
        lhs = self._eval(state, inst.lhs)
        rhs = self._eval(state, inst.rhs)
        if inst.opcode in (Opcode.UDIV, Opcode.SDIV, Opcode.UREM, Opcode.SREM):
            self._check_division(state, inst, rhs)
        state.bind(inst, binary(_BINARY_OPS[inst.opcode], lhs, rhs))

    def _check_division(self, state: ExecutionState, inst: BinaryInst,
                        divisor: Expr) -> None:
        if divisor.is_symbolic:
            divisor = state.rewrite(divisor)
        zero = const(divisor.width, 0)
        if divisor.is_constant:
            if divisor.value == 0:
                raise ProgramError(ErrorKind.DIVISION_BY_ZERO, "")
            return
        is_zero = binary(ExprOp.EQ, divisor, zero)
        varfree, groups = state.relevant_partition(is_zero)
        can_zero, can_nonzero = self.solver.check_branch_partition(
            varfree, groups, is_zero)
        if not can_zero:
            # Division is safe; the nonzero fact is implied by the path
            # condition, so there is nothing to record.
            return
        if not can_nonzero:
            # The divisor is zero on every continuation of this path.
            raise ProgramError(ErrorKind.DIVISION_BY_ZERO, "")
        # Fork an error path on which the divisor is zero.
        error_state = state.fork()
        self.stats.forks += 1
        self.stats.states_created += 1
        error_state.add_constraint(is_zero)
        error = ProgramError(ErrorKind.DIVISION_BY_ZERO, "",
                             state.frame.function.name,
                             state.frame.block.name
                             if state.frame.block else "")
        self._record_error(error_state, error)
        state.add_constraint(not_expr(is_zero))

    def _execute_cast(self, state: ExecutionState, inst: CastInst) -> Expr:
        value = self._eval(state, inst.value)
        target_width = self._width_of(inst.type)
        if inst.opcode is Opcode.ZEXT:
            return zext(value, target_width)
        if inst.opcode is Opcode.SEXT:
            return sext(value, target_width)
        if inst.opcode is Opcode.TRUNC:
            return trunc(value, target_width)
        if inst.opcode in (Opcode.BITCAST, Opcode.PTRTOINT, Opcode.INTTOPTR):
            if value.width < target_width:
                return zext(value, target_width)
            if value.width > target_width:
                return trunc(value, target_width)
            return value
        raise ProgramError(ErrorKind.UNKNOWN_FUNCTION,
                           f"unknown cast {inst.opcode.value}")

    # ----------------------------------------------------------- memory
    def _concretize_address(self, state: ExecutionState, pointer: Value,
                            access_size: int = 1) -> int:
        """Return a concrete address for a pointer operand.

        For a symbolic address the executor first checks, KLEE-style, whether
        the address can fall outside the bounds of the object a feasible
        value points into; if so, an error path is forked and reported.  The
        continuing state is then constrained to one concrete in-bounds value.
        """
        address = self._eval(state, pointer)
        if address.is_symbolic:
            # An address pinned by an earlier concretization constraint
            # folds to that constant: no model query, no bounds re-check.
            address = state.rewrite(address)
        if address.is_constant:
            return address.value
        # The chosen model *becomes path structure* (the state is pinned to
        # this concrete address), so it must not depend on what other
        # queries happen to have cached: concretization_model is a pure
        # function of the query, keeping exploration identical across
        # searchers and cold or warm caches.
        model = self.solver.concretization_model(
            *state.relevant_partition(address)) or {}
        concrete = address.evaluate({name: model.get(name, 0)
                                     for name in address.variables()})
        obj = state.memory.object_at(concrete)
        if obj is not None:
            low = const(address.width, obj.base)
            high = const(address.width, obj.base + obj.size - access_size)
            out_of_bounds = binary(
                ExprOp.OR,
                binary(ExprOp.ULT, address, low),
                binary(ExprOp.ULT, high, address))
            if self.solver.may_be_true_partition(
                    *state.relevant_partition(out_of_bounds), out_of_bounds):
                error_state = state.fork()
                self.stats.forks += 1
                self.stats.states_created += 1
                error_state.add_constraint(out_of_bounds)
                error = ProgramError(
                    ErrorKind.OUT_OF_BOUNDS,
                    f"symbolic address may leave object '{obj.name}'",
                    state.frame.function.name,
                    state.frame.block.name if state.frame.block else "")
                self._record_error(error_state, error)
                state.add_constraint(not_expr(out_of_bounds))
        state.add_constraint(binary(ExprOp.EQ, address,
                                    const(address.width, concrete)))
        return concrete

    # ----------------------------------------------------------- calls
    def _execute_call(self, state: ExecutionState, inst: CallInst) -> bool:
        callee = inst.callee
        if not isinstance(callee, Function):
            raise ProgramError(ErrorKind.UNKNOWN_FUNCTION,
                               "indirect calls are not supported")
        if callee.is_declaration:
            self._execute_intrinsic(state, inst, callee)
            return False
        if len(state.stack) >= self.limits.max_call_depth:
            raise ProgramError(ErrorKind.STACK_OVERFLOW, callee.name)
        frame = StackFrame(callee, call_site=inst)
        frame.block = callee.entry_block
        for argument, actual in zip(callee.arguments, inst.args):
            frame.bind(id(argument), self._eval(state, actual))
        state.push_frame(frame)
        return False

    def _execute_intrinsic(self, state: ExecutionState, inst: CallInst,
                           callee: Function) -> None:
        name = callee.name
        if name in ("__overify_check_fail", "abort", "__assert_fail"):
            kind = ErrorKind.CHECK_FAILURE if name != "__assert_fail" \
                else ErrorKind.ASSERTION_FAILURE
            raise ProgramError(kind, name)
        if name in ("klee_silent_exit", "exit"):
            state.status = StateStatus.COMPLETED
            state.return_value = const(32, 0)
            return
        # Unknown external functions return an unconstrained fresh symbol
        # (KLEE would complain; we model them as havoc).
        if not inst.type.is_void:
            width = self._width_of(inst.type)
            fresh = var(width, f"ext_{name}_{state.instructions_executed}")
            state.bind(inst, fresh)

    def _execute_return(self, state: ExecutionState, inst: ReturnInst) -> None:
        value = self._eval(state, inst.value) if inst.value is not None else None
        finished_frame = state.pop_frame()
        if not state.stack:
            state.status = StateStatus.COMPLETED
            state.return_value = value
            return
        call_site = finished_frame.call_site
        if call_site is not None and not call_site.type.is_void and \
                value is not None:
            state.frame.bind(id(call_site), value)

    # ----------------------------------------------------------- branches
    def _execute_branch(self, state: ExecutionState, inst: BranchInst) -> bool:
        if not inst.is_conditional:
            state.jump_to(inst.true_target)
            return False
        self.stats.branches_encountered += 1
        condition = self._eval(state, inst.condition)
        if condition.is_symbolic:
            # A condition the recorded equalities already decide folds to a
            # constant here and never reaches the solver.
            condition = state.rewrite(condition)
        if condition.is_constant:
            state.jump_to(inst.true_target if condition.value
                          else inst.false_target)
            return False
        # Only the constraint groups sharing variables with the condition can
        # affect the branch; disjoint groups are satisfiable by the state
        # invariant and drop out of the query.  The state's partition goes
        # to the solver as-is.
        varfree, groups = state.relevant_partition(condition)
        can_true, can_false = self.solver.check_branch_partition(
            varfree, groups, condition)
        if can_true and not can_false:
            state.add_constraint(condition)
            state.jump_to(inst.true_target)
            return False
        if can_false and not can_true:
            state.add_constraint(not_expr(condition))
            state.jump_to(inst.false_target)
            return False
        if not can_true and not can_false:
            # The path constraints are themselves unsatisfiable; kill silently.
            state.status = StateStatus.TERMINATED
            self.stats.paths_terminated += 1
            return False
        # Fork: explore both directions.
        self.stats.forks += 1
        self.stats.states_created += 1
        false_state = state.fork()
        false_state.add_constraint(not_expr(condition))
        false_state.jump_to(inst.false_target)
        false_state.depth += 1
        state.add_constraint(condition)
        state.jump_to(inst.true_target)
        state.depth += 1
        self.searcher.add(false_state)
        self.searcher.add(state)
        return True

    def _execute_switch(self, state: ExecutionState, inst: SwitchInst) -> bool:
        self.stats.branches_encountered += 1
        value = self._eval(state, inst.value)
        if value.is_symbolic:
            value = state.rewrite(value)
        if value.is_constant:
            for case_const, target in inst.cases():
                if isinstance(case_const, ConstantInt) and \
                        case_const.value == value.value:
                    state.jump_to(target)
                    return False
            state.jump_to(inst.default)
            return False
        varfree, groups = state.relevant_partition(value)
        feasible: List[Tuple[Expr, BasicBlock]] = []
        default_constraint: List[Expr] = []
        for case_const, target in inst.cases():
            assert isinstance(case_const, ConstantInt)
            equals = binary(ExprOp.EQ, value,
                            const(value.width, case_const.value))
            default_constraint.append(not_expr(equals))
            if self.solver.may_be_true_partition(varfree, groups, equals):
                feasible.append((equals, target))
        default_feasible = self.solver.check_partition(
            varfree, groups, default_constraint).satisfiable
        targets: List[Tuple[List[Expr], BasicBlock]] = [
            ([expr], target) for expr, target in feasible]
        if default_feasible:
            targets.append((default_constraint, inst.default))
        if not targets:
            state.status = StateStatus.TERMINATED
            self.stats.paths_terminated += 1
            return False
        # The first feasible target continues on this state; the rest fork.
        for extra_constraints, target in targets[1:]:
            forked = state.fork()
            self.stats.forks += 1
            self.stats.states_created += 1
            for constraint in extra_constraints:
                forked.add_constraint(constraint)
            forked.jump_to(target)
            self.searcher.add(forked)
        first_constraints, first_target = targets[0]
        for constraint in first_constraints:
            state.add_constraint(constraint)
        state.jump_to(first_target)
        if len(targets) > 1:
            self.searcher.add(state)
            return True
        return False

    # ----------------------------------------------------------- reporting
    def _test_input_for(self, state: ExecutionState) -> Optional[bytes]:
        """A concrete input satisfying the state's path constraints."""
        if not self._input_variables:
            return b""
        model = self.solver.model_for_partition(*state.full_partition())
        if model is None:
            return None
        return bytes(model.get(name, 0) & 0xFF
                     for name in self._input_variables)

    def _record_completed(self, state: ExecutionState) -> None:
        # The model query runs before the counter bump: if it raises, the
        # containment in _run_state records one engine-error path without
        # leaving a phantom completed count behind.
        test_input = self._test_input_for(state)
        self.stats.paths_completed += 1
        return_value: Optional[int] = None
        if state.return_value is not None and state.return_value.is_constant:
            return_value = state.return_value.value
        self.report.paths.append(PathRecord(
            state_id=state.state_id,
            status=StateStatus.COMPLETED,
            constraint_count=len(state.constraints),
            instructions=state.instructions_executed,
            test_input=test_input,
            return_value=return_value,
        ))
        if self._state_sink is not None:
            self._state_sink(state)

    def _record_error(self, state: ExecutionState, error: ProgramError) -> None:
        state.status = StateStatus.ERROR
        state.error = error
        test_input = self._test_input_for(state)
        self.stats.paths_errored += 1
        self.report.paths.append(PathRecord(
            state_id=state.state_id,
            status=StateStatus.ERROR,
            constraint_count=len(state.constraints),
            instructions=state.instructions_executed,
            test_input=test_input,
        ))
        self.report.bugs.append(BugReport(
            kind=error.kind,
            message=error.message,
            function=error.function,
            block=error.block,
            test_input=test_input,
        ))
        if self._state_sink is not None:
            self._state_sink(state)


#: Concrete instruction class -> handler.  Exact-type keyed: the IR's
#: instruction hierarchy is flat (every class derives directly from
#: Instruction), so no subclass can miss its parent's handler.
SymbolicExecutor._DISPATCH = {
    BinaryInst: SymbolicExecutor._execute_binary,
    ICmpInst: SymbolicExecutor._execute_icmp,
    SelectInst: SymbolicExecutor._execute_select,
    CastInst: SymbolicExecutor._execute_cast_inst,
    AllocaInst: SymbolicExecutor._execute_alloca,
    LoadInst: SymbolicExecutor._execute_load,
    StoreInst: SymbolicExecutor._execute_store,
    GEPInst: SymbolicExecutor._execute_gep,
    CallInst: SymbolicExecutor._execute_call,
    BranchInst: SymbolicExecutor._execute_branch,
    SwitchInst: SymbolicExecutor._execute_switch,
    ReturnInst: SymbolicExecutor._execute_return,
    UnreachableInst: SymbolicExecutor._execute_unreachable,
    PhiInst: SymbolicExecutor._execute_phi_misplaced,
}


def explore(module: Module, num_input_bytes: int, entry: str = "main",
            searcher: str = "dfs", limits: Optional[SymexLimits] = None,
            solver: Optional[Solver] = None) -> SymexReport:
    """Convenience wrapper: symbolically execute ``entry`` with
    ``num_input_bytes`` of symbolic input and return the report."""
    executor = SymbolicExecutor(module, entry=entry, searcher=searcher,
                                limits=limits, solver=solver)
    return executor.run(num_input_bytes)
