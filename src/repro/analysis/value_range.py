"""Integer value-range analysis.

A small interval analysis over the IR.  Its one consumer is the annotation
pass (``repro.passes.annotate``), which exports ranges as instruction
metadata — the "program annotations: types, alias information, loop trip
counts" row of the paper's Table 2.

The symbolic-execution solver prunes infeasible branches with intervals
too, but over solver expressions and with its own transfer functions
(``_interval_transfer`` in :mod:`repro.symex.expr`), a separate
implementation that shares no code with this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..ir import (
    BinaryInst, CastInst, ConstantInt, Function, ICmpInst, Instruction,
    IntType, Opcode, PhiInst, SelectInst, Value,
)
from .cfg import CFG, reverse_postorder


@dataclass(frozen=True)
class Interval:
    """A closed interval [low, high] of *unsigned* values of some width."""

    low: int
    high: int

    @property
    def is_single_value(self) -> bool:
        return self.low == self.high

    def contains(self, value: int) -> bool:
        return self.low <= value <= self.high

    def width(self) -> int:
        return self.high - self.low + 1

    def union(self, other: "Interval") -> "Interval":
        return Interval(min(self.low, other.low), max(self.high, other.high))

    def __str__(self) -> str:
        return f"[{self.low}, {self.high}]"


def full_range(ty: IntType) -> Interval:
    return Interval(0, ty.max_unsigned)


def _binary_interval(opcode: Opcode, ty: IntType, a: Interval,
                     b: Interval) -> Interval:
    """Interval transfer function; falls back to the full range on overflow
    or for operations where interval arithmetic is imprecise."""
    top = full_range(ty)
    if opcode is Opcode.ADD:
        if a.high + b.high <= ty.max_unsigned:
            return Interval(a.low + b.low, a.high + b.high)
        return top
    if opcode is Opcode.SUB:
        if a.low - b.high >= 0:
            return Interval(a.low - b.high, a.high - b.low)
        return top
    if opcode is Opcode.MUL:
        if a.high * b.high <= ty.max_unsigned:
            return Interval(a.low * b.low, a.high * b.high)
        return top
    if opcode is Opcode.AND:
        return Interval(0, min(a.high, b.high))
    if opcode is Opcode.OR:
        high = a.high | b.high
        # The OR of two values cannot exceed the next power-of-two envelope.
        bits = max(a.high.bit_length(), b.high.bit_length())
        return Interval(max(a.low, b.low), min((1 << bits) - 1, ty.max_unsigned)
                        if bits else 0)
    if opcode is Opcode.XOR:
        bits = max(a.high.bit_length(), b.high.bit_length())
        return Interval(0, min((1 << bits) - 1, ty.max_unsigned) if bits else 0)
    if opcode is Opcode.UDIV:
        if b.low > 0:
            return Interval(a.low // b.high, a.high // b.low)
        return top
    if opcode is Opcode.UREM:
        if b.high > 0:
            return Interval(0, b.high - 1 if b.low > 0 else b.high)
        return top
    if opcode is Opcode.SHL:
        if b.is_single_value and a.high << b.low <= ty.max_unsigned:
            return Interval(a.low << b.low, a.high << b.low)
        return top
    if opcode is Opcode.LSHR:
        if b.is_single_value:
            return Interval(a.low >> b.low, a.high >> b.low)
        return Interval(0, a.high)
    return top


class ValueRangeAnalysis:
    """Forward interval propagation over a function in SSA form."""

    MAX_ITERATIONS = 8

    def __init__(self, function: Function,
                 cfg: Optional[CFG] = None) -> None:
        self.function = function
        self._cfg = cfg
        self.ranges: Dict[int, Interval] = {}
        self._run()

    def _value_range(self, value: Value) -> Optional[Interval]:
        if isinstance(value, ConstantInt):
            return Interval(value.value, value.value)
        if id(value) in self.ranges:
            return self.ranges[id(value)]
        if isinstance(value.type, IntType):
            return full_range(value.type)
        return None

    def _run(self) -> None:
        blocks = self._cfg.reverse_postorder if self._cfg is not None \
            else reverse_postorder(self.function)
        for _ in range(self.MAX_ITERATIONS):
            changed = False
            for block in blocks:
                for inst in block.instructions:
                    new = self._transfer(inst)
                    if new is None:
                        continue
                    old = self.ranges.get(id(inst))
                    if old is not None:
                        new = new.union(old) if isinstance(inst, PhiInst) else new
                    if old != new:
                        self.ranges[id(inst)] = new
                        changed = True
            if not changed:
                break

    def _transfer(self, inst: Instruction) -> Optional[Interval]:
        ty = inst.type
        if not isinstance(ty, IntType):
            return None
        if isinstance(inst, BinaryInst):
            a = self._value_range(inst.lhs)
            b = self._value_range(inst.rhs)
            if a is None or b is None:
                return full_range(ty)
            return _binary_interval(inst.opcode, ty, a, b)
        if isinstance(inst, ICmpInst):
            return Interval(0, 1)
        if isinstance(inst, SelectInst):
            a = self._value_range(inst.true_value)
            b = self._value_range(inst.false_value)
            if a is None or b is None:
                return full_range(ty)
            return a.union(b)
        if isinstance(inst, CastInst):
            source = self._value_range(inst.value)
            if source is None:
                return full_range(ty)
            if inst.opcode is Opcode.ZEXT:
                return source
            if inst.opcode is Opcode.TRUNC:
                if source.high <= ty.max_unsigned:
                    return source
                return full_range(ty)
            if inst.opcode is Opcode.SEXT:
                source_ty = inst.value.type
                if isinstance(source_ty, IntType) and \
                        source.high < source_ty.sign_bit:
                    return source  # non-negative values extend unchanged
                return full_range(ty)
            return full_range(ty)
        if isinstance(inst, PhiInst):
            result: Optional[Interval] = None
            for value, _ in inst.incoming():
                r = self._value_range(value)
                if r is None:
                    return full_range(ty)
                result = r if result is None else result.union(r)
            return result or full_range(ty)
        if inst.opcode is Opcode.LOAD:
            return full_range(ty)
        if inst.opcode is Opcode.CALL:
            return full_range(ty)
        return full_range(ty)

    # ------------------------------------------------------------- queries
    def range_of(self, value: Value) -> Optional[Interval]:
        """The computed interval for ``value`` (None for non-integers)."""
        return self._value_range(value)
