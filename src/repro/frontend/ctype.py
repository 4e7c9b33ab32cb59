"""MiniC's source-level type system.

The front end tracks signedness (which the IR does not), array bounds, and
struct layouts, and knows how to map each source type onto an IR type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..ir import types as irtypes


class CType:
    """Base class of MiniC types."""

    def to_ir(self) -> irtypes.Type:
        raise NotImplementedError

    @property
    def is_void(self) -> bool:
        return isinstance(self, CVoid)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, CInt)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, CPointer)

    @property
    def is_array(self) -> bool:
        return isinstance(self, CArray)

    @property
    def is_struct(self) -> bool:
        return isinstance(self, CStruct)

    @property
    def is_scalar(self) -> bool:
        return self.is_integer or self.is_pointer

    def size_in_bytes(self) -> int:
        return self.to_ir().size_in_bytes()


@dataclass(frozen=True)
class CVoid(CType):
    def to_ir(self) -> irtypes.Type:
        return irtypes.VOID

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class CInt(CType):
    """An integer type with a width in bits and a signedness."""

    width: int
    signed: bool = True

    def to_ir(self) -> irtypes.IntType:
        return irtypes.int_type(self.width)

    def __str__(self) -> str:
        names = {8: "char", 16: "short", 32: "int", 64: "long", 1: "_Bool"}
        base = names.get(self.width, f"int{self.width}")
        return base if self.signed else f"unsigned {base}"


@dataclass(frozen=True)
class CPointer(CType):
    pointee: CType

    def to_ir(self) -> irtypes.PointerType:
        pointee = self.pointee.to_ir()
        if pointee.is_void:
            # void* is modelled as i8* in the IR.
            pointee = irtypes.I8
        return irtypes.PointerType(pointee)

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class CArray(CType):
    element: CType
    count: int

    def to_ir(self) -> irtypes.ArrayType:
        return irtypes.ArrayType(self.element.to_ir(), self.count)

    def __str__(self) -> str:
        return f"{self.element}[{self.count}]"


@dataclass(frozen=True)
class CStruct(CType):
    name: str
    field_names: Tuple[str, ...] = ()
    field_types: Tuple[CType, ...] = ()

    def to_ir(self) -> irtypes.StructType:
        return irtypes.StructType(
            self.name,
            tuple(f.to_ir() for f in self.field_types),
            self.field_names,
        )

    def field_type(self, name: str) -> CType:
        try:
            return self.field_types[self.field_names.index(name)]
        except ValueError as exc:
            raise KeyError(f"struct {self.name} has no field '{name}'") from exc

    def field_index(self, name: str) -> int:
        return self.field_names.index(name)

    def __str__(self) -> str:
        return f"struct {self.name}"


@dataclass(frozen=True)
class CFunction(CType):
    return_type: CType
    param_types: Tuple[CType, ...]
    is_vararg: bool = False

    def to_ir(self) -> irtypes.FunctionType:
        return irtypes.FunctionType(
            self.return_type.to_ir(),
            tuple(decay(p).to_ir() for p in self.param_types),
            self.is_vararg,
        )

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.param_types)
        return f"{self.return_type} ({params})"


# Canonical instances
VOID = CVoid()
BOOL = CInt(1, signed=False)
CHAR = CInt(8, signed=True)
UCHAR = CInt(8, signed=False)
SHORT = CInt(16, signed=True)
USHORT = CInt(16, signed=False)
INT = CInt(32, signed=True)
UINT = CInt(32, signed=False)
LONG = CInt(64, signed=True)
ULONG = CInt(64, signed=False)


def decay(ty: CType) -> CType:
    """Array-to-pointer decay, as in C."""
    if isinstance(ty, CArray):
        return CPointer(ty.element)
    return ty


def integer_promote(ty: CType) -> CType:
    """C-style integer promotion: anything narrower than int becomes int."""
    if isinstance(ty, CInt) and ty.width < 32:
        return INT
    return ty


def usual_arithmetic_conversion(lhs: CType, rhs: CType) -> CType:
    """The common type of a binary arithmetic expression."""
    lhs = integer_promote(lhs)
    rhs = integer_promote(rhs)
    if not isinstance(lhs, CInt) or not isinstance(rhs, CInt):
        raise TypeError(f"cannot combine {lhs} and {rhs}")
    width = max(lhs.width, rhs.width)
    if lhs.width == rhs.width:
        signed = lhs.signed and rhs.signed
    else:
        signed = lhs.signed if lhs.width > rhs.width else rhs.signed
    return CInt(width, signed)
