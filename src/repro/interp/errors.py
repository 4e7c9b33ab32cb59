"""Runtime error taxonomy shared by the concrete interpreter and (re-used
for reporting) by the symbolic executor."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ErrorKind(enum.Enum):
    """The kinds of program failures the execution engines detect."""

    NULL_DEREFERENCE = "null pointer dereference"
    OUT_OF_BOUNDS = "out-of-bounds memory access"
    DIVISION_BY_ZERO = "division by zero"
    CHECK_FAILURE = "runtime check failure"
    ASSERTION_FAILURE = "assertion failure"
    UNREACHABLE_EXECUTED = "unreachable instruction executed"
    STACK_OVERFLOW = "call stack overflow"
    STEP_LIMIT = "execution step limit exceeded"
    INVALID_FREE = "invalid free"
    UNKNOWN_FUNCTION = "call to unknown function"


@dataclass
class ProgramError(Exception):
    """A detected program failure (a "crash" in the paper's terminology)."""

    kind: ErrorKind
    message: str = ""
    function: str = ""
    block: str = ""

    def __str__(self) -> str:
        where = f" in @{self.function}:{self.block}" if self.function else ""
        detail = f": {self.message}" if self.message else ""
        return f"{self.kind.value}{where}{detail}"
