"""Structured failure taxonomy and a deterministic fault-injection harness.

The stack treats partial failure as a first-class outcome (see
``docs/robustness.md``): a solver exception on one path becomes a
diagnosed ``engine-error`` path, a torn store append costs no record
saved before it, a malformed service request gets a structured
``protocol`` error response.  Two things make that contract testable:

* **The taxonomy.**  Every failure the stack raises deliberately is a
  :class:`ReproError` subclass carrying a stable ``kind`` string (wired
  into service responses as ``error_kind``), a ``retryable`` hint, and
  the fault ``site`` that produced it.

* **The injector.**  Named fault sites — ``solver.check``,
  ``engine.step``, ``store.write``, ``store.load``, ``server.handle`` —
  are threaded through the hot paths as

      if _SITE.armed:
          _SITE.fire()

  ``armed`` is a plain attribute that is ``False`` unless a plan names
  the site, so an unarmed site costs one attribute read.  Plans are
  installed programmatically (:func:`injected` in tests) or from the
  ``REPRO_FAULTS`` environment variable at import time::

      REPRO_FAULTS="store.write:every=3;solver.check:prob=0.01;seed=7"

  Plan grammar — ``;``-separated clauses, each ``site[:directives]``
  with ``,``-separated directives:

  * ``every=N``   — fire on every Nth hit of the site (default ``every=1``).
  * ``prob=P``    — fire each hit with probability ``P`` (deterministic:
    the draw hashes ``seed:site:hit``, so a plan replays identically
    regardless of thread scheduling).
  * ``times=N`` / ``once`` — stop after N firings (``once`` = ``times=1``).
  * ``seed=N``    — a bare clause seeding every ``prob`` draw.
"""

from __future__ import annotations

import os
import threading
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Type


# --------------------------------------------------------------- taxonomy
class ReproError(Exception):
    """Base of every deliberate failure in the stack.

    ``kind`` is the stable wire identifier (service responses carry it as
    ``error_kind``); ``retryable`` hints whether an identical retry can
    succeed; ``site`` names the fault site that produced the error, when
    one did.
    """

    kind = "repro"
    retryable = False

    def __init__(self, message: str, site: Optional[str] = None) -> None:
        super().__init__(message)
        self.site = site


class SolverError(ReproError):
    """A constraint-solver query failed (contained per path)."""
    kind = "solver"
    retryable = False


class EngineError(ReproError):
    """The symbolic-execution engine failed on one path (contained)."""
    kind = "engine"
    retryable = False


class StoreError(ReproError):
    """A knowledge-store read or write failed (persistence is
    best-effort; the run degrades to memory-only)."""
    kind = "store"
    retryable = True


class DeadlineExceeded(ReproError):
    """A query or job overran its wall-clock deadline."""
    kind = "deadline"
    retryable = True


class ProtocolError(ReproError):
    """A malformed service request (the client's fault, not ours)."""
    kind = "protocol"
    retryable = False


class FaultPlanError(ValueError):
    """A ``REPRO_FAULTS`` plan that does not parse."""


# --------------------------------------------------------------- injector
@dataclass(frozen=True)
class _Rule:
    """One site's firing discipline (parsed from a plan clause)."""
    every: int = 1      #: fire every Nth hit (0 = use ``prob`` instead)
    prob: float = 0.0   #: per-hit firing probability (when ``every`` = 0)
    times: int = -1     #: stop after this many firings (-1 = unlimited)
    seed: int = 0       #: seeds the deterministic ``prob`` draws


def _draw(seed: int, name: str, hit: int) -> float:
    """Deterministic uniform draw in [0, 1) for hit number ``hit`` of
    site ``name``.  A pure function of its arguments — unlike a shared
    ``random.Random``, the sequence cannot depend on which thread
    happens to hit a site first."""
    token = f"{seed}:{name}:{hit}".encode("utf-8")
    return (zlib.crc32(token) % 999_983) / 999_983.0


class FaultSite:
    """One named injection point.

    ``armed`` is the fast-path gate: callers write
    ``if SITE.armed: SITE.fire()`` so an unarmed site costs a single
    attribute read on the hot path.  ``fire()`` raises the site's error
    class when the installed rule says this hit should fail.
    """

    __slots__ = ("name", "error", "armed", "hits", "fired", "_rule",
                 "_lock")

    def __init__(self, name: str, error: Type[ReproError]) -> None:
        self.name = name
        self.error = error
        self.armed = False
        self.hits = 0       #: fire() calls since the plan was installed
        self.fired = 0      #: faults actually raised
        self._rule: Optional[_Rule] = None
        self._lock = threading.Lock()

    def fire(self) -> None:
        """Raise this site's error if the installed rule triggers."""
        rule = self._rule
        if rule is None:
            return
        with self._lock:
            self.hits += 1
            hit = self.hits
            if rule.times >= 0 and self.fired >= rule.times:
                return
            if rule.every:
                trigger = hit % rule.every == 0
            else:
                trigger = _draw(rule.seed, self.name, hit) < rule.prob
            if not trigger:
                return
            self.fired += 1
        raise self.error(f"injected fault at {self.name} (hit {hit})",
                         site=self.name)

    def _apply(self, rule: Optional[_Rule]) -> None:
        with self._lock:
            self._rule = rule
            self.hits = 0
            self.fired = 0
            self.armed = rule is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "armed" if self.armed else "disarmed"
        return f"<FaultSite {self.name} {state} fired={self.fired}>"


def _parse_plan(text: str) -> Dict[str, _Rule]:
    """Parse a ``REPRO_FAULTS`` plan into site-name -> rule."""
    clauses = [clause.strip() for clause in text.split(";")
               if clause.strip()]
    seed = 0
    site_clauses: List[str] = []
    for clause in clauses:
        if clause.startswith("seed="):
            try:
                seed = int(clause[len("seed="):])
            except ValueError:
                raise FaultPlanError(f"bad seed clause {clause!r}") from None
        else:
            site_clauses.append(clause)

    rules: Dict[str, _Rule] = {}
    for clause in site_clauses:
        name, _, tail = clause.partition(":")
        name = name.strip()
        if not name or any(ch.isspace() for ch in name):
            raise FaultPlanError(f"bad site name in clause {clause!r}")
        every = 0
        prob = 0.0
        times = -1
        for directive in (d.strip() for d in tail.split(",") if d.strip()):
            if directive == "once":
                times = 1
            elif directive.startswith("every="):
                try:
                    every = int(directive[len("every="):])
                except ValueError:
                    raise FaultPlanError(
                        f"bad directive {directive!r}") from None
                if every < 1:
                    raise FaultPlanError(f"every= must be >= 1 in {clause!r}")
            elif directive.startswith("prob="):
                try:
                    prob = float(directive[len("prob="):])
                except ValueError:
                    raise FaultPlanError(
                        f"bad directive {directive!r}") from None
                if not 0.0 < prob <= 1.0:
                    raise FaultPlanError(
                        f"prob= must be in (0, 1] in {clause!r}")
            elif directive.startswith("times="):
                try:
                    times = int(directive[len("times="):])
                except ValueError:
                    raise FaultPlanError(
                        f"bad directive {directive!r}") from None
                if times < 0:
                    raise FaultPlanError(f"times= must be >= 0 in {clause!r}")
            else:
                raise FaultPlanError(f"unknown directive {directive!r} "
                                     f"in clause {clause!r}")
        if every and prob:
            raise FaultPlanError(
                f"give every= or prob=, not both, in {clause!r}")
        if not every and not prob:
            every = 1
        rules[name] = _Rule(every=every, prob=prob, times=times, seed=seed)
    return rules


class FaultInjector:
    """The process-wide fault-site registry + plan installer.

    Sites register lazily (at module import of their host), plans can be
    installed at any time: a plan naming a site that is not registered
    yet is kept pending and arms the site the moment it registers.
    """

    def __init__(self) -> None:
        self._sites: Dict[str, FaultSite] = {}
        self._rules: Dict[str, _Rule] = {}
        self._lock = threading.Lock()
        self.plan_text = ""

    def site(self, name: str,
             error: Type[ReproError] = EngineError) -> FaultSite:
        """Register (or fetch) the site called ``name``."""
        with self._lock:
            existing = self._sites.get(name)
            if existing is not None:
                return existing
            site = FaultSite(name, error)
            site._apply(self._rules.get(name))
            self._sites[name] = site
            return site

    def install(self, plan: str) -> None:
        """Replace the active plan (and reset every site's counters).
        The empty string disarms everything."""
        rules = _parse_plan(plan)
        with self._lock:
            self.plan_text = plan
            self._rules = rules
            for name, site in self._sites.items():
                site._apply(rules.get(name))

    def clear(self) -> None:
        self.install("")

    def registered(self) -> List[str]:
        """Every site name the process has registered, sorted."""
        with self._lock:
            return sorted(self._sites)

    def armed(self) -> List[str]:
        """The registered sites the active plan arms, sorted."""
        with self._lock:
            return sorted(name for name, site in self._sites.items()
                          if site.armed)

    def fired(self) -> Dict[str, int]:
        """site name -> faults raised since the plan was installed."""
        with self._lock:
            return {name: site.fired for name, site in self._sites.items()
                    if site.fired}


#: The process-wide injector every fault site registers with.
INJECTOR = FaultInjector()


def site(name: str, error: Type[ReproError] = EngineError) -> FaultSite:
    """Module-level convenience: ``faults.site("solver.check")``."""
    return INJECTOR.site(name, error)


class injected:
    """Context manager installing ``plan`` for the duration of a test::

        with faults.injected("store.write:once"):
            ...

    Restores the previously active plan (usually none) on exit.
    """

    def __init__(self, plan: str) -> None:
        self.plan = plan
        self._previous = ""

    def __enter__(self) -> FaultInjector:
        self._previous = INJECTOR.plan_text
        INJECTOR.install(self.plan)
        return INJECTOR

    def __exit__(self, *exc_info: object) -> None:
        INJECTOR.install(self._previous)


_env_plan = os.environ.get("REPRO_FAULTS", "")
if _env_plan:
    INJECTOR.install(_env_plan)


__all__ = [
    "ReproError", "SolverError", "EngineError", "StoreError",
    "DeadlineExceeded", "ProtocolError", "FaultPlanError",
    "FaultSite", "FaultInjector", "INJECTOR", "site", "injected",
]
