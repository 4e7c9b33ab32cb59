"""Type system for the repro IR.

The IR is typed in the style of LLVM: integer types of arbitrary bit width,
pointers, fixed-size arrays, structs, functions and ``void``.  Types are
immutable value objects; two structurally identical types compare equal and
hash equally, so they can be freely used as dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


class Type:
    """Base class of all IR types."""

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    @property
    def is_struct(self) -> bool:
        return isinstance(self, StructType)

    @property
    def is_function(self) -> bool:
        return isinstance(self, FunctionType)

    @property
    def is_aggregate(self) -> bool:
        return self.is_array or self.is_struct

    @property
    def is_first_class(self) -> bool:
        """True for types that an SSA value may have."""
        return not self.is_void and not self.is_function

    def size_in_bytes(self) -> int:
        """Size of a value of this type in the IR's flat byte memory model."""
        raise NotImplementedError(f"type {self} has no size")


@dataclass(frozen=True)
class VoidType(Type):
    """The type of instructions that produce no value."""

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(Type):
    """An integer type of a fixed bit width (i1, i8, i16, i32, i64)."""

    width: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.width > 128:
            raise ValueError(f"unsupported integer width {self.width}")

    def __str__(self) -> str:
        return f"i{self.width}"

    def size_in_bytes(self) -> int:
        return max(1, (self.width + 7) // 8)

    @property
    def mask(self) -> int:
        """Bit mask covering the full width (e.g. 0xFF for i8)."""
        return (1 << self.width) - 1

    @property
    def sign_bit(self) -> int:
        return 1 << (self.width - 1)

    @property
    def min_signed(self) -> int:
        return -(1 << (self.width - 1))

    @property
    def max_signed(self) -> int:
        return (1 << (self.width - 1)) - 1

    @property
    def max_unsigned(self) -> int:
        return self.mask


@dataclass(frozen=True)
class PointerType(Type):
    """Pointer to a value of ``pointee`` type.

    Pointers are 64-bit in the memory model.
    """

    pointee: Type

    def __str__(self) -> str:
        return f"{self.pointee}*"

    def size_in_bytes(self) -> int:
        return 8


@dataclass(frozen=True)
class ArrayType(Type):
    """Fixed-size array of ``count`` elements of ``element`` type."""

    element: Type
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("array count must be non-negative")

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"

    def size_in_bytes(self) -> int:
        return self.count * self.element.size_in_bytes()


@dataclass(frozen=True)
class StructType(Type):
    """A struct with named fields laid out sequentially (no padding)."""

    name: str
    fields: Tuple[Type, ...]
    field_names: Tuple[str, ...] = ()

    def __str__(self) -> str:
        inner = ", ".join(str(f) for f in self.fields)
        return f"%{self.name} = {{ {inner} }}" if self.name else f"{{ {inner} }}"

    def size_in_bytes(self) -> int:
        return sum(f.size_in_bytes() for f in self.fields)

    def field_offset(self, index: int) -> int:
        """Byte offset of field ``index`` from the start of the struct."""
        if index < 0 or index >= len(self.fields):
            raise IndexError(f"struct {self.name} has no field {index}")
        return sum(f.size_in_bytes() for f in self.fields[:index])

    def field_index(self, name: str) -> int:
        """Index of the field called ``name``."""
        try:
            return self.field_names.index(name)
        except ValueError as exc:
            raise KeyError(f"struct {self.name} has no field '{name}'") from exc


@dataclass(frozen=True)
class FunctionType(Type):
    """Type of a function: return type plus parameter types."""

    return_type: Type
    param_types: Tuple[Type, ...]
    is_vararg: bool = False

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.param_types)
        if self.is_vararg:
            params = f"{params}, ..." if params else "..."
        return f"{self.return_type} ({params})"


# Common singletons used throughout the code base.
VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)


def int_type(width: int) -> IntType:
    """Return the canonical integer type of ``width`` bits."""
    if width == 1:
        return I1
    if width == 8:
        return I8
    if width == 16:
        return I16
    if width == 32:
        return I32
    if width == 64:
        return I64
    return IntType(width)


def pointer_to(ty: Type) -> PointerType:
    """Return a pointer type to ``ty``."""
    return PointerType(ty)
