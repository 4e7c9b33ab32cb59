"""The verification-backend protocol and registry.

The paper measures one thing — how fast an automated tool can chew through
a build — with two engines: the symbolic executor (exhaustive path
exploration) and the concrete interpreter (one execution).  This module
gives both the same shape so drivers (the experiment harness, the CLI) ask
*a backend* for a :class:`VerificationOutcome` instead of hand-calling each
engine:

* :class:`VerificationBackend` — the protocol: ``verify(module, request)``.
* :class:`VerificationRequest` / :class:`VerificationOutcome` — the
  engine-independent input/output records.
* a registry plus a textual spec syntax mirroring the pass syntax:
  ``make_backend("symex<searcher=bfs>")`` selects the symbolic executor
  with breadth-first search; ``make_backend("interp")`` the interpreter.

The engines register themselves from :mod:`repro.symex.backend` and
:mod:`repro.interp.backend` at import time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .ir import Module


@dataclass
class VerificationRequest:
    """Engine-independent description of one verification run."""

    #: Size of the symbolic input buffer (path-exploring backends).
    symbolic_input_bytes: int = 4
    #: Concrete input (single-execution backends).
    concrete_input: bytes = b"the quick brown fox"
    #: Wall-clock budget (the paper used one hour per Coreutils program).
    timeout_seconds: float = 60.0
    #: Instruction budget across the whole run.
    max_instructions: int = 5_000_000
    #: Entry function.
    entry: str = "main"


@dataclass
class VerificationOutcome:
    """What a backend reports back, uniformly across engines."""

    backend: str
    seconds: float
    instructions: int
    paths: int
    errors: int
    timed_out: bool
    bug_signatures: frozenset = frozenset()
    return_value: Optional[int] = None
    #: Paths the engine abandoned because *it* failed (contained
    #: solver/interpreter exceptions), not because the program was buggy.
    #: Zero on a healthy run; see ``docs/robustness.md``.
    engine_errors: int = 0
    #: Which resource budget truncated the run ("paths", "instructions",
    #: "forks", "timeout"); empty when exploration finished.
    termination_reason: str = ""
    #: Constraint-solver counters (queries, cache/model-cache hits,
    #: assignments tried, ...) for solver-backed engines; empty otherwise.
    solver_stats: Dict[str, float] = field(default_factory=dict)
    #: Where the answer came from, for cache-aware drivers (the
    #: verification service): ``"cold"`` — computed from scratch;
    #: ``"warm-store"`` — computed, but at least one solver group was
    #: answered by an entry primed from a persistent knowledge store;
    #: ``"memo-hit"`` — the whole run was skipped because the
    #: post-pipeline IR fingerprint matched a memoized verification.
    provenance: str = "cold"
    #: The engine-specific report (``SymexReport`` / ``ExecutionResult``)
    #: for drivers that want the details.
    detail: object = None


class VerificationBackend:
    """Protocol every verification engine adapter implements."""

    #: Registry name (also the default spelling in outcome reports).
    name: str = ""

    def verify(self, module: Module,
               request: VerificationRequest) -> VerificationOutcome:
        raise NotImplementedError  # pragma: no cover

    def describe(self) -> str:
        """The canonical textual spec of this backend instance."""
        return self.name


class BackendSpecError(ValueError):
    """A backend spec string could not be resolved."""


_REGISTRY: Dict[str, Callable[..., VerificationBackend]] = {}


def register_backend(name: str,
                     factory: Callable[..., VerificationBackend]) -> None:
    """Register a backend factory (called by the engine adapters at import
    time)."""
    if name in _REGISTRY:
        raise ValueError(f"backend '{name}' is already registered")
    _REGISTRY[name] = factory


def _ensure_builtin_backends() -> None:
    # The adapters live next to their engines; import them lazily so that
    # `repro.verification` itself stays import-cycle free.
    from . import interp, symex  # noqa: F401


def backend_names() -> List[str]:
    _ensure_builtin_backends()
    return sorted(_REGISTRY)


def _accepted_parameters(factory: Callable[..., VerificationBackend]
                         ) -> Optional[frozenset]:
    """The keyword parameters ``factory`` accepts, or ``None`` when it
    takes ``**kwargs`` (everything goes)."""
    import inspect

    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return None
    names = []
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return None
        if parameter.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                              inspect.Parameter.KEYWORD_ONLY):
            names.append(parameter.name)
    return frozenset(names)


def make_backend(spec: str, **default_params: object) -> VerificationBackend:
    """Build a backend from its textual spec.

    The syntax mirrors the pass syntax: ``name`` or
    ``name<key=value,...>`` (``symex<searcher=bfs>``).  ``default_params``
    supply values for keys the spec does not mention; defaults the selected
    backend does not understand are dropped (parameters written in the spec
    itself are always passed through and must be understood).
    """
    _ensure_builtin_backends()
    text = spec.strip()
    params: Dict[str, object] = dict(default_params)
    explicit: List[str] = []
    if "<" in text:
        if not text.endswith(">"):
            raise BackendSpecError(
                f"malformed backend spec {spec!r}: parameters must be "
                f"enclosed in '<...>'")
        text, _, param_text = text[:-1].partition("<")
        text = text.strip()
        for item in param_text.split(","):
            item = item.strip()
            if not item:
                raise BackendSpecError(
                    f"backend '{text}': empty parameter in spec {spec!r}")
            key, eq, raw = item.partition("=")
            key = key.strip().replace("-", "_")
            if key in explicit:
                raise BackendSpecError(
                    f"backend '{text}': duplicate parameter '{key}'")
            explicit.append(key)
            if not eq:
                params[key] = True
                continue
            raw = raw.strip()
            # Only an optional '-' and ASCII digits are an integer; any
            # other text stays a string for the backend to check.
            params[key] = int(raw) if re.fullmatch(r"-?[0-9]+", raw) else raw
    factory = _REGISTRY.get(text)
    if factory is None:
        raise BackendSpecError(
            f"unknown verification backend '{text}'; known: "
            f"{', '.join(sorted(_REGISTRY))}")
    accepted = _accepted_parameters(factory)
    if accepted is not None:
        params = {key: value for key, value in params.items()
                  if key in accepted or key in explicit}
    try:
        return factory(**params)
    except BackendSpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise BackendSpecError(
            f"backend '{text}' rejected parameters {params}: {exc}") from exc
