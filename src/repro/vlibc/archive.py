"""A C library as an archive: one member per function, analysed on demand.

A static linker pulls an object file out of ``libc.a`` only when it
resolves a symbol the program left undefined, so a program pays only for
the library code it uses.  :class:`LibraryArchive` does the same for a
MiniC library text.  :func:`split_members` cuts the text into one member
per top-level function definition or declaration, in source order, by
balancing braces outside comments and literals: no lexing.  A member is
parsed and analysed the first time symbol resolution asks for its name,
and its calls load the members they name the same way.  An analysed
member is published to every thread of the process; nothing writes to it
afterwards.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Dict, List, NamedTuple, Optional

from ..frontend import ast
from ..frontend.ctype import CFunction

#: What the split must step over whole: comments, ``#`` lines (the lexer
#: skips both), character and string literals; and the punctuators that
#: open, close and end a top-level item, and ``(``, whose first top-level
#: occurrence in an item follows the item's function name.
_SCAN_RE = re.compile(
    r"//.*|/\*(?s:.*?)\*/|#.*|'(?:\\.|.)*?'|\"(?:\\.|.)*?\"|[{};(]")


class Member(NamedTuple):
    """One top-level function of a library text.  ``text`` starts where
    the previous member ended, so it carries the comments above its
    function, and the last member carries the text's tail."""

    name: str
    text: str
    is_declaration: bool


def split_members(text: str) -> List[Member]:
    """``text`` cut into one member per top-level function definition or
    declaration, in source order; the members' texts join back to
    ``text``.  Raises ``ValueError`` on a top-level item that is not a
    function, on a name given twice, and on unbalanced braces."""
    members: List[Member] = []
    start = 0  # where the current member's text begins
    head = -1  # where the current item's first '{' or ';' is, if seen
    name = ""  # the current item's function name, once seen
    depth = 0
    for match in _SCAN_RE.finditer(text):
        token = match[0]
        if token == "(":
            if head < 0 and not name:
                words = text[start:match.start()].replace("*", " ").split()
                name = words[-1] if words else ""
            continue
        if token not in ("{", "}", ";"):
            continue
        if depth == 0 and head < 0:
            head = match.start()
        if token == "{":
            depth += 1
            continue
        if token == "}":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced '}}' at offset {match.start()}")
        if depth == 0:
            if not name.isidentifier():
                raise ValueError("a library holds functions only, not "
                                 f"{text[start:head].strip()!r}")
            if any(member.name == name for member in members):
                raise ValueError(f"the library gives '{name}' twice")
            members.append(Member(name, text[start:match.end()],
                                  text[head] == ";"))
            start, head, name = match.end(), -1, ""
    tail = text[start:]
    if depth or _SCAN_RE.sub("", tail).strip() or not members:
        raise ValueError("the library text ends inside an item")
    members[-1] = members[-1]._replace(text=members[-1].text + tail)
    return members


class LibraryArchive:
    """A library text whose members are analysed when first asked for.

    ``parse(text)`` and ``analyze(unit, library=archive)`` turn a member's
    text into its analysed unit; a member's calls resolve through this
    archive, loading the members they name.
    """

    def __init__(self, text: str,
                 parse: Callable[[str], ast.TranslationUnit],
                 analyze: Callable[..., ast.TranslationUnit]) -> None:
        self.members = split_members(text)
        self._parse = parse
        self._analyze = analyze
        self._index = {member.name: index
                       for index, member in enumerate(self.members)}
        #: Analysed members, by name; an entry is complete when written.
        self._units: Dict[str, ast.TranslationUnit] = {}
        #: Members this thread is analysing (only the thread holding the
        #: lock writes or reads it), so calls among members can recurse.
        self._loading: Dict[str, ast.TranslationUnit] = {}
        self._lock = threading.RLock()

    def load(self, name: str) -> Optional[ast.TranslationUnit]:
        """The analysed unit of member ``name``, parsed and analysed on
        the first request (other threads wait for that analysis); ``None``
        if the archive has no such member.  Asked again from inside that
        member's own analysis, as calls among members do, it returns the
        unit still in analysis."""
        unit = self._units.get(name)
        if unit is not None or name not in self._index:
            return unit
        with self._lock:
            unit = self._units.get(name)
            if unit is None:
                unit = self._loading.get(name)
            if unit is None:
                unit = self._parse(self.members[self._index[name]].text)
                self._loading[name] = unit
                try:
                    self._analyze(unit, library=self)
                finally:
                    del self._loading[name]
                self._units[name] = unit
            return unit

    def signature(self, name: str) -> Optional[CFunction]:
        """The signature of library function ``name`` (loading its
        member), or ``None`` if the library does not declare it.  Asked
        about a member this thread is still analysing, it answers with
        what that member's analysis has declared so far."""
        unit = self.load(name)
        return None if unit is None else unit.signatures.get(name)

    def loaded(self) -> List[str]:
        """The names of the members analysed so far, in library order."""
        return [member.name for member in self.members
                if member.name in self._units]
