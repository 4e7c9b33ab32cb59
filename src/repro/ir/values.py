"""Value hierarchy of the repro IR.

Every operand of an instruction is a :class:`Value`.  Values carry a type and
an optional name, and track their uses so that transformations can rewrite
the use-def graph (``replace_all_uses_with``).  Concrete subclasses are
constants, function arguments, global variables, basic blocks (as branch
targets), functions, and instructions (defined in :mod:`repro.ir.instructions`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, TYPE_CHECKING

from .types import ArrayType, IntType, PointerType, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from .instructions import Instruction


class Use:
    """A single use of a value: ``user.operands[index] is value``."""

    __slots__ = ("user", "index")

    def __init__(self, user: "User", index: int) -> None:
        self.user = user
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Use({self.user!r}, {self.index})"


class Value:
    """Base class for everything that can appear as an operand."""

    #: True only for basic blocks, so an operand rewrite can tell a branch
    #: target from a value without an isinstance check.
    is_block = False

    def __init__(self, ty: Type, name: str = "") -> None:
        self.type = ty
        self.name = name
        self.uses: List[Use] = []

    # ------------------------------------------------------------------ uses
    def add_use(self, user: "User", index: int) -> None:
        self.uses.append(Use(user, index))

    def remove_use(self, user: "User", index: int) -> None:
        for i, use in enumerate(self.uses):
            if use.user is user and use.index == index:
                del self.uses[i]
                return

    @property
    def num_uses(self) -> int:
        return len(self.uses)

    def users(self) -> List["User"]:
        """Distinct users of this value, in first-use order."""
        seen: List[User] = []
        for use in self.uses:
            if use.user not in seen:
                seen.append(use.user)
        return seen

    def replace_all_uses_with(self, new_value: "Value") -> None:
        """Rewrite every use of ``self`` to use ``new_value`` instead."""
        if new_value is self:
            return
        for use in list(self.uses):
            use.user.set_operand(use.index, new_value)

    # ------------------------------------------------------------- rendering
    def ref(self) -> str:
        """How this value is referenced as an operand (e.g. ``%x`` or ``42``)."""
        return f"%{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.ref()}: {self.type}>"


class User(Value):
    """A value that uses other values as operands."""

    def __init__(self, ty: Type, operands: Iterable[Value] = (), name: str = "") -> None:
        super().__init__(ty, name)
        self.operands: List[Value] = []
        for op in operands:
            self.append_operand(op)

    def append_operand(self, value: Value) -> None:
        index = len(self.operands)
        self.operands.append(value)
        value.add_use(self, index)

    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        old.remove_use(self, index)
        self.operands[index] = value
        value.add_use(self, index)

    def drop_all_references(self) -> None:
        """Remove this user from the use lists of all its operands."""
        for index, op in enumerate(self.operands):
            op.remove_use(self, index)
        self.operands = []


# --------------------------------------------------------------------------
# Constants
# --------------------------------------------------------------------------
class Constant(Value):
    """Base class for compile-time constants."""

    def ref(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


class ConstantInt(Constant):
    """An integer constant, stored as the unsigned two's-complement value."""

    def __init__(self, ty: IntType, value: int) -> None:
        super().__init__(ty)
        self.value = value & ty.mask

    @property
    def signed_value(self) -> int:
        """The value interpreted as a signed integer."""
        ity = self.type
        assert isinstance(ity, IntType)
        if self.value & ity.sign_bit:
            return self.value - (1 << ity.width)
        return self.value

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_one(self) -> bool:
        return self.value == 1

    @property
    def is_all_ones(self) -> bool:
        ity = self.type
        assert isinstance(ity, IntType)
        return self.value == ity.mask

    def ref(self) -> str:
        return str(self.signed_value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConstantInt {self.type} {self.signed_value}>"


class UndefValue(Constant):
    """An undefined value of a given type."""

    def ref(self) -> str:
        return "undef"


class ConstantArray(Constant):
    """A constant array, used mainly for string literals."""

    def __init__(self, element_type: IntType, values: Iterable[int]) -> None:
        vals = [v & element_type.mask for v in values]
        super().__init__(ArrayType(element_type, len(vals)))
        self.values = vals

    @classmethod
    def from_string(cls, text: str, null_terminate: bool = True) -> "ConstantArray":
        data = list(text.encode("utf-8"))
        if null_terminate:
            data.append(0)
        return cls(IntType(8), data)

    def as_bytes(self) -> bytes:
        return bytes(v & 0xFF for v in self.values)

    def ref(self) -> str:
        return "c" + _quote_bytes(self.values)


def _quote_bytes(values: Iterable[int]) -> str:
    parts = []
    for v in values:
        ch = v & 0xFF
        if 0x20 <= ch <= 0x7E and ch not in (0x22, 0x5C):
            parts.append(chr(ch))
        else:
            parts.append(f"\\{ch:02x}")
    return '"' + "".join(parts) + '"'


# --------------------------------------------------------------------------
# Globals and arguments
# --------------------------------------------------------------------------
class GlobalVariable(Value):
    """A module-level variable.  Its value is the *address*; the type is a
    pointer to the stored type."""

    def __init__(
        self,
        name: str,
        value_type: Type,
        initializer: Optional[Constant] = None,
        is_constant: bool = False,
    ) -> None:
        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer
        self.is_constant = is_constant

    def ref(self) -> str:
        return f"@{self.name}"


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, ty: Type, name: str, index: int) -> None:
        super().__init__(ty, name)
        self.index = index
