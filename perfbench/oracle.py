"""The benchmark's verdict oracle.

``expected_verdicts.json`` is written by hand from the programs' sources:
for each (program, symbolic input size) it lists the bug classes a
complete exploration must report, and at 1 byte which input bytes trigger
each class.  ``cross_check.py`` confirms every entry up to 2 bytes by
running every input concretely; nothing in it comes from the symbolic
engine.

A verdict is checked two ways: its bug classes must equal the file's, and
every reported bug's test input must trap, with the same class, when
replayed through ``repro.interp.run_module`` on the same module.
"""

from __future__ import annotations

import json
import os
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

import repro.interp

EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected_verdicts.json")


class Oracle:
    """Expected bug classes, loaded from the hand-written file."""

    def __init__(self) -> None:
        with open(EXPECTED_FILE, encoding="utf-8") as handle:
            data = json.load(handle)
        self._class_of: Dict[str, str] = {
            kind: name for name, kinds in data["classes"].items()
            for kind in kinds}
        self._programs: Dict[str, dict] = data["programs"]

    def class_of(self, kind: str) -> str:
        """The bug class of an ``ErrorKind`` value.  check-failure,
        out-of-bounds and null-deref are one class, as in relcheck."""
        return self._class_of.get(kind, kind)

    def classes_of(self, signatures: Iterable[Sequence[str]]
                   ) -> FrozenSet[str]:
        """Bug classes of ``(kind, function, block)`` signatures."""
        return frozenset(self.class_of(signature[0])
                         for signature in signatures)

    def expected(self, program: str, input_bytes: int,
                 guard: Optional[int] = None) -> FrozenSet[str]:
        """The classes a complete verdict must report.  ``guard`` is the
        one byte a service-mix guard edit lets through (1-byte inputs)."""
        entry = self._programs[program]
        if guard is None:
            return frozenset(entry[str(input_bytes)])
        if input_bytes != 1:
            raise ValueError("guard edits are checked at 1 byte only")
        return frozenset(
            name for name, spans in entry.get("bytes_1", {}).items()
            if any(_in_span(guard, span) for span in spans))

    def programs(self) -> List[str]:
        return sorted(self._programs)

    def sizes(self, program: str) -> List[int]:
        return sorted(int(key) for key in self._programs[program]
                      if key.isdigit())

    def trigger_bytes(self, program: str) -> Dict[str, List[str]]:
        return dict(self._programs[program].get("bytes_1", {}))


def _in_span(value: int, span: str) -> bool:
    """``"30"`` or ``"00-ff"`` (hex, inclusive)."""
    low, _, high = span.partition("-")
    return int(low, 16) <= value <= int(high or low, 16)


def replay_bugs(module: object, bugs: Iterable[object],
                oracle: Oracle) -> List[dict]:
    """Replay each reported bug's test input on ``module``.  Confirmed
    when the concrete run traps with the bug's class."""
    replays = []
    for bug in bugs:
        claimed = oracle.class_of(bug.kind.value)
        trapped = ""
        if bug.test_input is not None:
            result = repro.interp.run_module(module, bug.test_input)
            if result.error is not None:
                trapped = oracle.class_of(result.error.kind.value)
        replays.append({"class": claimed, "trapped": trapped,
                        "input": None if bug.test_input is None
                        else bug.test_input.hex(),
                        "confirmed": trapped == claimed})
    return replays


def check_verdict(expected: FrozenSet[str], reported: FrozenSet[str],
                  replays: Sequence[dict]) -> str:
    """``""`` when the verdict is right, else why it is wrong."""
    problems = []
    if reported != expected:
        problems.append(f"classes {sorted(reported)} != expected "
                        f"{sorted(expected)}")
    for replay in replays:
        if not replay["confirmed"]:
            problems.append(f"{replay['class']} witness "
                            f"{replay['input']} does not trap "
                            f"({replay['trapped'] or 'ran clean'})")
    return "; ".join(problems)
