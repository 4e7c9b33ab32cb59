"""Flat byte-addressable memory for the concrete interpreter.

Objects (globals, stack slots, harness-provided buffers) are carved out of a
single address space; every access is checked against the bounds of the
object it falls into, so memory-safety violations surface as
:class:`ProgramError` rather than silent corruption — the behaviour a
verification tool expects from its runtime.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional

from .errors import ErrorKind, ProgramError

#: Addresses below this are never valid (catches null + small offsets).
NULL_GUARD_SIZE = 4096


@dataclass
class MemoryObject:
    """One allocation in the flat address space."""

    base: int
    size: int
    name: str = ""
    writable: bool = True

    def contains(self, address: int, access_size: int) -> bool:
        return self.base <= address and \
            address + access_size <= self.base + self.size


class Memory:
    """A bump-allocated, bounds-checked byte memory."""

    def __init__(self) -> None:
        self._next_address = NULL_GUARD_SIZE
        self._objects: List[MemoryObject] = []
        self._bytes: Dict[int, int] = {}
        #: Interval index for lookup: bases ascend because allocation only
        #: ever bumps ``_next_address``, so ``_bases[i]`` is the base of
        #: ``_objects[i]`` and both lists stay sorted without effort.
        self._bases: List[int] = []

    # -------------------------------------------------------------- layout
    def allocate(self, size: int, name: str = "",
                 writable: bool = True) -> int:
        """Allocate ``size`` bytes and return the base address."""
        size = max(1, size)
        base = self._next_address
        # Pad allocations so adjacent objects never touch; off-by-one bugs
        # then hit unmapped memory instead of a neighbouring object.
        self._next_address += size + 16
        obj = MemoryObject(base=base, size=size, name=name, writable=writable)
        self._objects.append(obj)
        self._bases.append(base)
        return base

    def object_at(self, address: int) -> Optional[MemoryObject]:
        """The object containing ``address``, if any.

        Binary search over the (always sorted) base list: a linear scan
        here made every load/store O(objects) and dominated interpreter
        time on alloca-heavy programs.
        """
        index = bisect_right(self._bases, address) - 1
        if index < 0:
            return None
        obj = self._objects[index]
        if obj.base <= address < obj.base + obj.size:
            return obj
        return None

    # -------------------------------------------------------------- access
    def _check(self, address: int, size: int, write: bool) -> MemoryObject:
        if address < NULL_GUARD_SIZE:
            raise ProgramError(ErrorKind.NULL_DEREFERENCE,
                               f"access at address {address:#x}")
        obj = self.object_at(address)
        if obj is None or not obj.contains(address, size):
            raise ProgramError(
                ErrorKind.OUT_OF_BOUNDS,
                f"{'write' if write else 'read'} of {size} bytes at "
                f"{address:#x}")
        if write and not obj.writable:
            raise ProgramError(ErrorKind.OUT_OF_BOUNDS,
                               f"write to read-only object '{obj.name}'")
        return obj

    def store_bytes(self, address: int, data: bytes) -> None:
        self._check(address, len(data), write=True)
        for offset, value in enumerate(data):
            self._bytes[address + offset] = value

    def load_bytes(self, address: int, size: int) -> bytes:
        self._check(address, size, write=False)
        return bytes(self._bytes.get(address + i, 0) for i in range(size))

    def store_int(self, address: int, value: int, size: int) -> None:
        self.store_bytes(address, (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"))

    def load_int(self, address: int, size: int) -> int:
        return int.from_bytes(self.load_bytes(address, size), "little")
