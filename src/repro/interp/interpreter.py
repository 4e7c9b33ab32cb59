"""A concrete interpreter for the repro IR.

Used for three purposes:

* measuring ``t_run`` in Table 1 (execution cost of each build),
* differential testing — every optimization level must compute the same
  result on the same concrete input, and
* serving as the ground-truth oracle for the symbolic executor's models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ir import (
    AllocaInst, Argument, BasicBlock, BinaryInst, BranchInst, CallInst,
    CastInst, ConstantArray, ConstantInt, Function, GEPInst, GlobalVariable,
    ICmpInst, Instruction, IntType, LoadInst, Module, Opcode, ReturnInst,
    SelectInst, StoreInst, SwitchInst, Type, UndefValue, UnreachableInst,
    Value, eval_binary, eval_icmp,
)
from .errors import ErrorKind, ProgramError
from .memory import Memory


@dataclass
class ExecutionStats:
    """What one concrete run costs."""

    instructions_executed: int = 0
    branches_executed: int = 0
    calls_executed: int = 0
    loads_executed: int = 0
    stores_executed: int = 0
    max_call_depth: int = 0
    wall_seconds: float = 0.0


@dataclass
class ExecutionResult:
    """Outcome of a concrete run."""

    return_value: Optional[int]
    stats: ExecutionStats
    error: Optional[ProgramError] = None

    @property
    def crashed(self) -> bool:
        return self.error is not None


class _Frame:
    """One activation record."""

    __slots__ = ("function", "values", "block", "previous_block", "index")

    def __init__(self, function: Function) -> None:
        self.function = function
        self.values: Dict[int, int] = {}
        self.block: BasicBlock = function.entry_block
        self.previous_block: Optional[BasicBlock] = None
        self.index = 0


class Interpreter:
    """Executes IR functions concretely over the flat memory model."""

    def __init__(self, module: Module, max_steps: int = 50_000_000,
                 max_call_depth: int = 256) -> None:
        self.module = module
        self.memory = Memory()
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        self.stats = ExecutionStats()
        self._globals: Dict[str, int] = {}
        self._intrinsics = {
            "__overify_check_fail": self._intrinsic_check_fail,
            "abort": self._intrinsic_check_fail,
            "__assert_fail": self._intrinsic_assert_fail,
        }
        self._initialize_globals()

    # ------------------------------------------------------------- globals
    def _initialize_globals(self) -> None:
        for gv in self.module.globals.values():
            size = gv.value_type.size_in_bytes()
            address = self.memory.allocate(size, name=gv.name,
                                           writable=not gv.is_constant)
            # Initializers are written before the object is marked read-only,
            # so bypass the writability check by toggling it afterwards.
            obj = self.memory.object_at(address)
            assert obj is not None
            obj.writable = True
            if isinstance(gv.initializer, ConstantInt):
                self.memory.store_int(address, gv.initializer.value, size)
            elif isinstance(gv.initializer, ConstantArray):
                self.memory.store_bytes(address, gv.initializer.as_bytes())
            obj.writable = not gv.is_constant
            self._globals[gv.name] = address

    # ------------------------------------------------------------- helpers
    def allocate_buffer(self, data: bytes, name: str = "buffer") -> int:
        """Allocate and initialize a byte buffer; returns its address."""
        address = self.memory.allocate(len(data) or 1, name=name)
        if data:
            self.memory.store_bytes(address, data)
        return address

    def value_of(self, value: Value, frame: _Frame) -> int:
        if isinstance(value, ConstantInt):
            return value.value
        if isinstance(value, UndefValue):
            return 0
        if isinstance(value, GlobalVariable):
            return self._globals[value.name]
        if isinstance(value, Function):
            raise ProgramError(ErrorKind.UNKNOWN_FUNCTION,
                               "function addresses cannot be taken")
        if isinstance(value, (Instruction, Argument)):
            try:
                return frame.values[id(value)]
            except KeyError as exc:
                raise ProgramError(
                    ErrorKind.UNREACHABLE_EXECUTED,
                    f"use of value %{value.name} before definition") from exc
        raise ProgramError(ErrorKind.UNKNOWN_FUNCTION,
                           f"cannot evaluate {value!r}")

    @staticmethod
    def _size_of(ty: Type) -> int:
        return ty.size_in_bytes()

    # ------------------------------------------------------------- running
    def run_function(self, function: Union[str, Function],
                     args: Sequence[int]) -> ExecutionResult:
        """Run ``function`` with integer/pointer arguments."""
        if isinstance(function, str):
            function = self.module.get_function(function)
        start = time.perf_counter()
        error: Optional[ProgramError] = None
        value: Optional[int] = None
        try:
            value = self._call(function, list(args), depth=0)
        except ProgramError as exc:
            error = exc
        self.stats.wall_seconds += time.perf_counter() - start
        return ExecutionResult(return_value=value, stats=self.stats,
                               error=error)

    def run_program(self, input_bytes: bytes,
                    entry: str = "main") -> ExecutionResult:
        """Run the workload entry point ``int main(unsigned char*, int)``
        on ``input_bytes`` (a NUL terminator is appended automatically)."""
        buffer = self.allocate_buffer(bytes(input_bytes) + b"\x00",
                                      name="input")
        return self.run_function(entry, [buffer, len(input_bytes)])

    # ------------------------------------------------------------- calls
    def _call(self, function: Function, args: List[int], depth: int) -> Optional[int]:
        if depth > self.max_call_depth:
            raise ProgramError(ErrorKind.STACK_OVERFLOW,
                               f"call depth exceeded in @{function.name}")
        if function.is_declaration:
            return self._call_external(function, args)
        self.stats.max_call_depth = max(self.stats.max_call_depth, depth)
        frame = _Frame(function)
        for argument, value in zip(function.arguments, args):
            frame.values[id(argument)] = value

        while True:
            block = frame.block
            # Phi nodes are evaluated together, based on the incoming edge.
            phis = block.phis()
            if phis:
                incoming = {}
                for phi in phis:
                    assert frame.previous_block is not None
                    incoming[id(phi)] = self.value_of(
                        phi.incoming_value_for(frame.previous_block), frame)
                    self.stats.instructions_executed += 1
                frame.values.update(incoming)
            for inst in block.instructions[len(phis):]:
                self._count_step(function, block)
                outcome = self._execute(inst, frame, depth)
                if outcome is None:
                    continue
                kind, payload = outcome
                if kind == "return":
                    return payload
                if kind == "jump":
                    frame.previous_block = block
                    frame.block = payload
                    break
            else:
                raise ProgramError(ErrorKind.UNREACHABLE_EXECUTED,
                                   f"block {block.name} fell through",
                                   function.name, block.name)

    def _count_step(self, function: Function, block: BasicBlock) -> None:
        self.stats.instructions_executed += 1
        if self.stats.instructions_executed > self.max_steps:
            raise ProgramError(ErrorKind.STEP_LIMIT,
                               f"exceeded {self.max_steps} steps",
                               function.name, block.name)

    def _call_external(self, function: Function, args: List[int]) -> Optional[int]:
        handler = self._intrinsics.get(function.name)
        if handler is None:
            raise ProgramError(ErrorKind.UNKNOWN_FUNCTION,
                               f"call to undefined function @{function.name}")
        return handler(args)

    def _intrinsic_check_fail(self, args: List[int]) -> Optional[int]:
        raise ProgramError(ErrorKind.CHECK_FAILURE, "__overify_check_fail")

    def _intrinsic_assert_fail(self, args: List[int]) -> Optional[int]:
        raise ProgramError(ErrorKind.ASSERTION_FAILURE, "__assert_fail")

    # ------------------------------------------------------------- execute
    def _execute(self, inst: Instruction, frame: _Frame,
                 depth: int) -> Optional[Tuple[str, object]]:
        function = frame.function
        if isinstance(inst, BinaryInst):
            ty = inst.type
            assert isinstance(ty, IntType)
            lhs = self.value_of(inst.lhs, frame)
            rhs = self.value_of(inst.rhs, frame)
            result = eval_binary(inst.opcode, ty, lhs & ty.mask, rhs & ty.mask)
            if result is None:
                raise ProgramError(ErrorKind.DIVISION_BY_ZERO, "",
                                   function.name, inst.parent.name
                                   if inst.parent else "")
            frame.values[id(inst)] = result
            return None
        if isinstance(inst, ICmpInst):
            lhs_ty = inst.lhs.type
            width_ty = lhs_ty if isinstance(lhs_ty, IntType) else IntType(64)
            lhs = self.value_of(inst.lhs, frame) & width_ty.mask
            rhs = self.value_of(inst.rhs, frame) & width_ty.mask
            frame.values[id(inst)] = int(eval_icmp(inst.predicate, width_ty,
                                                   lhs, rhs))
            return None
        if isinstance(inst, SelectInst):
            condition = self.value_of(inst.condition, frame)
            chosen = inst.true_value if condition & 1 else inst.false_value
            frame.values[id(inst)] = self.value_of(chosen, frame)
            return None
        if isinstance(inst, CastInst):
            frame.values[id(inst)] = self._execute_cast(inst, frame)
            return None
        if isinstance(inst, AllocaInst):
            size = self._size_of(inst.allocated_type)
            frame.values[id(inst)] = self.memory.allocate(
                size, name=inst.name or "alloca")
            return None
        if isinstance(inst, LoadInst):
            address = self.value_of(inst.pointer, frame)
            size = self._size_of(inst.type)
            self.stats.loads_executed += 1
            try:
                frame.values[id(inst)] = self.memory.load_int(address, size)
            except ProgramError as exc:
                exc.function = function.name
                exc.block = inst.parent.name if inst.parent else ""
                raise
            return None
        if isinstance(inst, StoreInst):
            address = self.value_of(inst.pointer, frame)
            value = self.value_of(inst.value, frame)
            size = self._size_of(inst.value.type)
            self.stats.stores_executed += 1
            try:
                self.memory.store_int(address, value, size)
            except ProgramError as exc:
                exc.function = function.name
                exc.block = inst.parent.name if inst.parent else ""
                raise
            return None
        if isinstance(inst, GEPInst):
            base = self.value_of(inst.base, frame)
            offset = sum(self._as_signed(self.value_of(index, frame), index)
                         for index in inst.indices)
            frame.values[id(inst)] = (base + offset) & ((1 << 64) - 1)
            return None
        if isinstance(inst, CallInst):
            callee = inst.callee
            if not isinstance(callee, Function):
                raise ProgramError(ErrorKind.UNKNOWN_FUNCTION,
                                   "indirect calls are not supported")
            args = [self.value_of(arg, frame) for arg in inst.args]
            self.stats.calls_executed += 1
            result = self._call(callee, args, depth + 1)
            if not inst.type.is_void:
                frame.values[id(inst)] = result if result is not None else 0
            return None
        if isinstance(inst, BranchInst):
            self.stats.branches_executed += 1
            if not inst.is_conditional:
                return "jump", inst.true_target
            condition = self.value_of(inst.condition, frame)
            return "jump", (inst.true_target if condition & 1
                            else inst.false_target)
        if isinstance(inst, SwitchInst):
            self.stats.branches_executed += 1
            value = self.value_of(inst.value, frame)
            for const, target in inst.cases():
                if isinstance(const, ConstantInt) and const.value == value:
                    return "jump", target
            return "jump", inst.default
        if isinstance(inst, ReturnInst):
            if inst.value is None:
                return "return", None
            return "return", self.value_of(inst.value, frame)
        if isinstance(inst, UnreachableInst):
            raise ProgramError(ErrorKind.UNREACHABLE_EXECUTED, "",
                               function.name,
                               inst.parent.name if inst.parent else "")
        raise ProgramError(ErrorKind.UNKNOWN_FUNCTION,
                           f"cannot execute {inst.opcode.value}")

    def _execute_cast(self, inst: CastInst, frame: _Frame) -> int:
        value = self.value_of(inst.value, frame)
        source_type = inst.value.type
        target_type = inst.type
        if inst.opcode in (Opcode.BITCAST, Opcode.INTTOPTR, Opcode.PTRTOINT):
            return value & ((1 << 64) - 1)
        assert isinstance(source_type, IntType)
        assert isinstance(target_type, IntType)
        value &= source_type.mask
        if inst.opcode is Opcode.ZEXT:
            return value
        if inst.opcode is Opcode.TRUNC:
            return value & target_type.mask
        if inst.opcode is Opcode.SEXT:
            if value & source_type.sign_bit:
                value -= (1 << source_type.width)
            return value & target_type.mask
        raise ProgramError(ErrorKind.UNKNOWN_FUNCTION,
                           f"unknown cast {inst.opcode.value}")

    @staticmethod
    def _as_signed(value: int, operand: Value) -> int:
        ty = operand.type
        if isinstance(ty, IntType) and value & ty.sign_bit:
            return value - (1 << ty.width)
        return value


def run_module(module: Module, input_bytes: bytes,
               entry: str = "main", max_steps: int = 50_000_000) -> ExecutionResult:
    """Convenience wrapper: run ``entry`` on ``input_bytes`` in a fresh
    interpreter."""
    interpreter = Interpreter(module, max_steps=max_steps)
    return interpreter.run_program(input_bytes, entry)
