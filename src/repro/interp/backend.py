"""The concrete interpreter as a :class:`VerificationBackend`.

One concrete execution is the degenerate verification run: a single path,
an error count of zero or one, and a bug signature when the run crashed —
the same outcome shape the symbolic backend reports, which is what lets
the harness and CLI treat "run it" and "verify it" uniformly.
"""

from __future__ import annotations

import time

from ..ir import Module
from ..verification import (
    VerificationBackend, VerificationOutcome, VerificationRequest,
    register_backend,
)
from .interpreter import run_module


class InterpBackend(VerificationBackend):
    """Single concrete execution on the request's concrete input, bounded
    by the request's instruction budget."""

    name = "interp"

    def verify(self, module: Module,
               request: VerificationRequest) -> VerificationOutcome:
        start = time.perf_counter()
        result = run_module(module, request.concrete_input,
                            entry=request.entry,
                            max_steps=request.max_instructions)
        seconds = time.perf_counter() - start
        signatures = frozenset()
        if result.error is not None:
            signatures = frozenset({(result.error.kind.value,
                                     result.error.function,
                                     result.error.block)})
        return VerificationOutcome(
            backend=self.describe(),
            seconds=seconds,
            instructions=result.stats.instructions_executed,
            paths=1,
            errors=1 if result.crashed else 0,
            timed_out=result.error is not None and
            result.error.kind.name == "STEP_LIMIT",
            bug_signatures=signatures,
            return_value=result.return_value,
            detail=result,
        )


register_backend("interp", InterpBackend)
