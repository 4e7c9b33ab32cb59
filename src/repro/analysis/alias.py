"""A simple may-alias analysis over the IR's flat memory model.

The paper notes that "memory accesses complicate the data-flow graph of a
program" and that splitting objects reduces aliasing opportunities.  This
module provides the alias queries used by SROA, the load-forwarding walk
GVN and load elimination share, and the annotation pass that exports alias
sets as metadata.  It also owns the speculation rule (``is_speculatable``)
that if-conversion and LICM apply before moving an instruction to where it
might not have run.

The analysis tracks the *underlying object* of every pointer: an alloca, a
global, an argument, or unknown.  Two pointers with distinct underlying
objects of the first two kinds cannot alias; pointers derived from the same
alloca with different constant byte offsets and non-overlapping extents
cannot alias either.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..ir import (
    AllocaInst, Argument, CallInst, CastInst, ConstantInt, GEPInst,
    GlobalVariable, Instruction, LoadInst, Opcode, PhiInst, StoreInst, Value,
)


class AliasResult(enum.Enum):
    NO_ALIAS = "no"
    MAY_ALIAS = "may"
    MUST_ALIAS = "must"


@dataclass(frozen=True)
class PointerInfo:
    """Decomposition of a pointer into (base object, constant byte offset)."""

    base: Value
    offset: Optional[int]  # None when the offset is not a compile-time constant

    @property
    def has_constant_offset(self) -> bool:
        return self.offset is not None


def underlying_object(pointer: Value) -> PointerInfo:
    """Strip GEPs and pointer casts to find the allocation a pointer is
    derived from, accumulating constant offsets along the way."""
    offset: Optional[int] = 0
    current = pointer
    while True:
        if isinstance(current, GEPInst):
            step = 0
            constant = True
            for index in current.indices:
                if isinstance(index, ConstantInt):
                    step += index.signed_value
                else:
                    constant = False
                    break
            if constant and offset is not None:
                offset += step
            else:
                offset = None
            current = current.base
        elif isinstance(current, CastInst) and current.opcode in (
                Opcode.BITCAST, Opcode.INTTOPTR, Opcode.PTRTOINT):
            if current.opcode is Opcode.BITCAST:
                current = current.value
            else:
                # Integer round trips lose provenance; give up on the offset.
                return PointerInfo(current, None)
        else:
            return PointerInfo(current, offset)


def is_speculatable(inst: Instruction) -> bool:
    """May ``inst`` run where the original program might not have run it?

    Never a store, call, phi, terminator or division (a zero divisor the
    skipped guard excluded would trap).  A load only when its address is an
    alloca or global plus a *constant* offset that keeps the whole access
    inside the object: a variable offset (``buffer[k]`` guarded by
    ``k >= 0``) could read outside it on the path the guard excluded, a
    memory error the original program does not have.
    """
    if isinstance(inst, (StoreInst, CallInst, PhiInst)) or \
            inst.is_terminator or inst.opcode in (
                Opcode.SDIV, Opcode.UDIV, Opcode.SREM, Opcode.UREM):
        return False
    if not isinstance(inst, LoadInst):
        return True
    info = underlying_object(inst.pointer)
    base = info.base
    if not isinstance(base, (AllocaInst, GlobalVariable)) or \
            info.offset is None or info.offset < 0:
        return False
    object_type = base.allocated_type if isinstance(base, AllocaInst) \
        else base.value_type
    return info.offset + inst.type.size_in_bytes() <= \
        object_type.size_in_bytes()


def _is_identified_object(value: Value) -> bool:
    """Allocas and globals are distinct objects with known identity."""
    return isinstance(value, (AllocaInst, GlobalVariable))


def alias(ptr_a: Value, size_a: int, ptr_b: Value, size_b: int) -> AliasResult:
    """May the byte ranges ``[ptr_a, ptr_a+size_a)`` and ``[ptr_b,
    ptr_b+size_b)`` overlap?"""
    info_a = underlying_object(ptr_a)
    info_b = underlying_object(ptr_b)

    if info_a.base is info_b.base:
        if info_a.offset is None or info_b.offset is None:
            return AliasResult.MAY_ALIAS
        if info_a.offset == info_b.offset and size_a == size_b:
            return AliasResult.MUST_ALIAS
        if info_a.offset + size_a <= info_b.offset or \
                info_b.offset + size_b <= info_a.offset:
            return AliasResult.NO_ALIAS
        return AliasResult.MAY_ALIAS

    # Distinct identified objects never overlap.
    if _is_identified_object(info_a.base) and _is_identified_object(info_b.base):
        return AliasResult.NO_ALIAS
    # An alloca whose address never escapes cannot alias an argument pointer.
    for local, other in ((info_a, info_b), (info_b, info_a)):
        if isinstance(local.base, AllocaInst) and \
                isinstance(other.base, Argument) and \
                not alloca_address_escapes(local.base):
            return AliasResult.NO_ALIAS
    return AliasResult.MAY_ALIAS


def alloca_address_escapes(alloca: AllocaInst) -> bool:
    """True if the address of ``alloca`` may escape the current function
    (stored somewhere, passed to a call, or converted to an integer)."""
    worklist = [alloca]
    seen = set()
    while worklist:
        value = worklist.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        for use in value.uses:
            user = use.user
            if isinstance(user, LoadInst):
                continue
            if isinstance(user, StoreInst):
                if user.value is value:
                    return True  # the address itself is stored
                continue
            if isinstance(user, GEPInst) and user.base is value:
                worklist.append(user)
                continue
            if isinstance(user, CastInst) and user.opcode is Opcode.BITCAST:
                worklist.append(user)
                continue
            if isinstance(user, CallInst):
                return True
            if isinstance(user, Instruction) and user.opcode is Opcode.PTRTOINT:
                return True
            # Phi/select/compare of addresses: be conservative.
            if isinstance(user, Instruction) and user.opcode in (
                    Opcode.PHI, Opcode.SELECT):
                worklist.append(user)
                continue
            if isinstance(user, Instruction) and user.opcode is Opcode.ICMP:
                continue
            return True
    return False
