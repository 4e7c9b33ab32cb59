"""Symbolic memory: a byte-addressable memory whose cells hold expressions.

Addresses themselves are concrete integers (the executor concretizes
symbolic addresses before they reach memory, as KLEE does for writes); the
*contents* of memory may be symbolic.  Bounds are tracked per object so that
memory-safety violations become detected errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..interp.errors import ErrorKind, ProgramError
from ..interp.memory import NULL_GUARD_SIZE
from .expr import Expr, ExprOp
from .simplify import concat_bytes, const, extract_byte


def _byte_source(byte: Expr) -> Optional[Tuple[Expr, int]]:
    """If ``byte`` is "byte ``i`` of some wider value", return (value, i)."""
    if byte.op is ExprOp.TRUNC and byte.width == 8:
        inner = byte.operands[0]
        if inner.op is ExprOp.LSHR and inner.operands[1].is_constant and \
                inner.operands[1].value % 8 == 0:
            return inner.operands[0], inner.operands[1].value // 8
        return inner, 0
    return None


def _reassemble_stored_value(parts: List[Expr], size: int) -> Optional[Expr]:
    """Detect the store/load round trip: if the ``size`` bytes are exactly
    bytes 0..size-1 of one value of width 8*size, return that value directly.

    Without this, an unoptimized (``-O0``) build — where every local value is
    written to an alloca and read back — produces expressions whose size
    grows with every memory round trip, which distorts the comparison between
    optimization levels: KLEE's expression builder performs the equivalent
    read-over-write simplification.
    """
    if size == 1:
        source = _byte_source(parts[0])
        if source is not None and source[0].width == 8 and source[1] == 0:
            return source[0]
        return None
    first = _byte_source(parts[0])
    if first is None:
        return None
    value, first_index = first
    if first_index != 0 or value.width != 8 * size:
        return None
    for i, part in enumerate(parts[1:], start=1):
        source = _byte_source(part)
        if source is None or source[0] is not value or source[1] != i:
            return None
    return value


@dataclass
class SymbolicMemoryObject:
    """One allocation: base address, size, and a name for error reports."""

    base: int
    size: int
    name: str = ""
    writable: bool = True


class SymbolicMemory:
    """Byte-granular memory holding symbolic expressions.

    Forking is copy-on-write: the byte dict and the object list are shared
    between the two memories until one side writes (expressions themselves
    are immutable, so sharing them is always safe).  A fork that never
    writes — an error path, a terminated state — costs O(1).
    """

    def __init__(self) -> None:
        self._next_address = NULL_GUARD_SIZE
        self.objects: List[SymbolicMemoryObject] = []
        self.bytes: Dict[int, Expr] = {}
        self._bytes_shared = False
        self._objects_shared = False

    # ------------------------------------------------------------- copying
    def fork(self) -> "SymbolicMemory":
        clone = SymbolicMemory.__new__(SymbolicMemory)
        clone._next_address = self._next_address
        clone.objects = self.objects
        clone.bytes = self.bytes
        clone._bytes_shared = True
        clone._objects_shared = True
        self._bytes_shared = True
        self._objects_shared = True
        return clone

    def _own_bytes(self) -> None:
        if self._bytes_shared:
            self.bytes = dict(self.bytes)
            self._bytes_shared = False

    def _own_objects(self) -> None:
        if self._objects_shared:
            self.objects = list(self.objects)
            self._objects_shared = False

    # -------------------------------------------------------------- layout
    def allocate(self, size: int, name: str = "", writable: bool = True) -> int:
        self._own_objects()
        size = max(1, size)
        base = self._next_address
        self._next_address += size + 16
        self.objects.append(SymbolicMemoryObject(base=base, size=size,
                                                 name=name, writable=writable))
        return base

    def object_at(self, address: int) -> Optional[SymbolicMemoryObject]:
        for obj in reversed(self.objects):
            if obj.base <= address < obj.base + obj.size:
                return obj
        return None

    def _check(self, address: int, size: int, write: bool) -> None:
        if address < NULL_GUARD_SIZE:
            raise ProgramError(ErrorKind.NULL_DEREFERENCE,
                               f"access at address {address:#x}")
        obj = self.object_at(address)
        if obj is None or address + size > obj.base + obj.size:
            raise ProgramError(
                ErrorKind.OUT_OF_BOUNDS,
                f"{'write' if write else 'read'} of {size} bytes at "
                f"{address:#x}")
        if write and not obj.writable:
            raise ProgramError(ErrorKind.OUT_OF_BOUNDS,
                               f"write to read-only object '{obj.name}'")

    # -------------------------------------------------------------- access
    def store(self, address: int, value: Expr, size: int) -> None:
        """Store ``value`` (an expression of width 8*size) little-endian."""
        self._check(address, size, write=True)
        self._own_bytes()
        if size == 1:
            # extract_byte(value, 0) of a width-8 value is the value.
            self.bytes[address] = value if value.width == 8 \
                else extract_byte(value, 0)
            return
        for i in range(size):
            self.bytes[address + i] = extract_byte(value, i)

    def load(self, address: int, size: int) -> Expr:
        """Load ``size`` bytes little-endian as one expression."""
        self._check(address, size, write=False)
        if size == 1:
            # Single bytes are stored whole; no reassembly to do.
            return self.bytes.get(address) or const(8, 0)
        parts = [self.bytes.get(address + i, const(8, 0)) for i in range(size)]
        whole = _reassemble_stored_value(parts, size)
        if whole is not None:
            return whole
        return concat_bytes(parts)

    def store_concrete_bytes(self, address: int, data: bytes) -> None:
        self._check(address, len(data), write=True)
        self._own_bytes()
        for i, value in enumerate(data):
            self.bytes[address + i] = const(8, value)

    def store_symbolic_bytes(self, address: int, exprs: List[Expr]) -> None:
        self._check(address, len(exprs), write=True)
        self._own_bytes()
        for i, expr in enumerate(exprs):
            self.bytes[address + i] = expr
