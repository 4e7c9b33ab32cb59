"""Source locations and diagnostics for the MiniC front end."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, NamedTuple

from ..faults import ReproError


class SourceLocation(NamedTuple):
    """A position in a source file (1-based line and column)."""

    line: int
    column: int
    filename: str = "<source>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


UNKNOWN_LOCATION = SourceLocation(0, 0, "<unknown>")


class CompileError(ReproError):
    """A diagnostic raised by the lexer, parser, or semantic analyzer: the
    source is at fault, so an identical retry fails the same way."""

    kind = "compile"
    retryable = False

    def __init__(self, message: str, location: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(f"{location}: {message}")
        self.message = message
        self.location = location


@contextmanager
def nesting_limit(location: SourceLocation) -> Iterator[None]:
    """Report source nested deeper than the recursive front end can follow
    as a :class:`CompileError` at ``location``, not a bare
    :class:`RecursionError`."""
    try:
        yield
    except RecursionError:
        raise CompileError("nested too deeply to compile", location) from None
