"""A persistent, cross-run solver-knowledge store.

-OVERIFY treats verification cost as a budget to engineer; the biggest
lever left after intra-run caching is **amortization across runs**: user
M+1 should never re-pay for anything user M already proved.  This module
persists the solver's table of exact group results
(:class:`~repro.symex.solver.SharedSolverCaches`, each result tagged with
whether a search found it) plus whole-run **memos** keyed by post-pipeline
IR fingerprints, so a resubmitted unchanged function skips symbolic
execution entirely.  The UBTree indexes are rebuilt from the table when it
is primed, so they are never written.  Only
:meth:`SolverKnowledgeStore.memo_lookup` decodes a memo, and the CLI and
the service share one lookup-or-verify-and-record step,
:func:`verify_memoized`, whose first memo miss primes the store's table.

Design points (see ``docs/service.md`` for the file format):

* **Canonical fingerprints.**  Expressions serialize as their
  deterministic DAG schedule (children before parents, shared nodes
  once), so the wire form is a canonical function of the expression; a
  constraint group's fingerprint is the SHA-256 over its sorted
  constraint wire forms and is therefore independent of process, hash
  seed, and constraint order.
* **A versioned, checksummed, append-only journal.**  A header pins
  format name + version and every record carries a checksum of its own
  body.  A save appends, in one ``O_APPEND`` write and an fsync, the
  records learned since the store's last successful save; it never
  reads, merges or rewrites the file, so writers sharing one path (the
  CLI, relcheck and a server) union their knowledge and none can drop
  another's batch.  Every append starts a new line, so a record never
  continues a line a torn append left unfinished.
* **Pay for what is new.**  :meth:`SolverKnowledgeStore.absorb`
  fingerprints only groups the store does not already hold, and a save
  encodes only the records it appends; neither re-reads nor re-encodes
  what the store already knows.
* **Damage costs the damaged line, never a wrong answer.**  A record
  line that does not parse or fails its checksum (a torn append, a
  flipped byte) is skipped and counted in
  :attr:`SolverKnowledgeStore.load_error` while the rest loads; a file
  whose header is foreign or of another version is moved aside and the
  run starts cold.  A store entry is only ever *added* to the solver
  caches through :meth:`~repro.symex.solver.SharedSolverCaches.remember`,
  which the solver treats exactly like knowledge it solved itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, TypeVar,
)

from ..faults import StoreError, site as _fault_site
from ..ir import Module
from ..ir.printer import print_module
from ..symex.expr import Expr, ExprOp
from ..symex.solver import SharedSolverCaches, SolverResult
from ..verification import (
    VerificationBackend, VerificationOutcome, VerificationRequest,
)

FORMAT_NAME = "repro-solver-store"
FORMAT_VERSION = 3

_Decoded = TypeVar("_Decoded")

#: Fault sites around store persistence (``docs/robustness.md``).
#: ``store.write`` fires after part of an append is in the file, before
#: the rest and the fsync — the torn-append window the journal must
#: survive; ``store.load`` fires at read time, degrading the run to a
#: cold start.
_STORE_WRITE = _fault_site("store.write", StoreError)
_STORE_LOAD = _fault_site("store.load", StoreError)


class WireError(ValueError):
    """A serialized expression or record failed validation."""


# --------------------------------------------------------------- wire codec
# An expression's wire form is its evaluation schedule: a list of nodes in
# deterministic topological order (children before parents, shared
# subexpressions once, root last).  Constants are ["c", width, value],
# variables ["v", width, name], everything else [op, width, [child
# indices]].  Decoding rebuilds bottom-up through the raw Expr constructor,
# which re-interns each node — a decoded expression *is* (identity) the
# original within one process.  Raw construction bypasses the simplifying
# smart constructors, which is sound here: stored expressions are already
# in post-simplification form.

def expr_to_wire(expr: Expr) -> list:
    """The canonical JSON-ready form of ``expr``."""
    nodes: list = []
    for op, width, _operand_width, operand_indices, value, name in \
            expr._evaluation_schedule():
        if op is ExprOp.CONST:
            nodes.append(["c", width, value])
        elif op is ExprOp.VAR:
            nodes.append(["v", width, name])
        else:
            nodes.append([op.value, width, list(operand_indices)])
    return nodes


def expr_from_wire(nodes: object) -> Expr:
    """Rebuild (and re-intern) an expression from its wire form.

    Raises :class:`WireError` on any structural problem — unknown tags,
    out-of-range widths, forward references — so a damaged record can
    never materialize as a malformed expression."""
    if not isinstance(nodes, list) or not nodes:
        raise WireError("expression wire form must be a non-empty list")
    built: List[Expr] = []
    for node in nodes:
        if not isinstance(node, list) or len(node) != 3:
            raise WireError(f"malformed wire node {node!r}")
        tag, width, payload = node
        if isinstance(width, bool) or not isinstance(width, int) or \
                not 1 <= width <= 64:
            raise WireError(f"bad width in wire node {node!r}")
        if tag == "c":
            if isinstance(payload, bool) or not isinstance(payload, int):
                raise WireError(f"bad constant value in {node!r}")
            built.append(Expr(ExprOp.CONST, width, value=payload))
            continue
        if tag == "v":
            if not isinstance(payload, str) or not payload:
                raise WireError(f"bad variable name in {node!r}")
            built.append(Expr(ExprOp.VAR, width, name=payload))
            continue
        try:
            op = ExprOp(tag)
        except ValueError as exc:
            raise WireError(f"unknown operator {tag!r}") from exc
        if op is ExprOp.CONST or op is ExprOp.VAR or \
                not isinstance(payload, list) or not payload:
            raise WireError(f"malformed wire node {node!r}")
        operands = []
        for index in payload:
            if isinstance(index, bool) or not isinstance(index, int) or \
                    not 0 <= index < len(built):
                raise WireError(f"bad operand index in {node!r}")
            operands.append(built[index])
        built.append(Expr(op, width, tuple(operands)))
    return built[-1]


def _canonical_json(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _sorted_wires(constraints: Iterable[Expr]) -> List[list]:
    """Constraint wire forms in a canonical (serialization-independent)
    order: sorted by their canonical JSON text."""
    return sorted((expr_to_wire(c) for c in constraints),
                  key=_canonical_json)


def group_fingerprint(constraints: Iterable[Expr]) -> str:
    """SHA-256 fingerprint of a constraint group, independent of
    constraint order, interning history, and process hash seed."""
    text = "\n".join(_canonical_json(wire)
                     for wire in _sorted_wires(constraints))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _model_from_wire(payload: object) -> Dict[str, int]:
    if not isinstance(payload, dict):
        raise WireError(f"model must be an object, got {payload!r}")
    model: Dict[str, int] = {}
    for name, value in payload.items():
        if not isinstance(name, str) or isinstance(value, bool) or \
                not isinstance(value, int):
            raise WireError(f"bad model binding {name!r}: {value!r}")
        model[name] = value
    return model


def _record_checksum(record: Dict[str, object]) -> str:
    """Integrity checksum of a record body (everything but ``sum``)."""
    body = {key: value for key, value in record.items() if key != "sum"}
    return hashlib.sha256(
        _canonical_json(body).encode("utf-8")).hexdigest()[:16]


#: The first line of every store file.
_HEADER = _canonical_json({"format": FORMAT_NAME, "version": FORMAT_VERSION})


def _record_line(kind: str, key: str, body: Dict[str, object]) -> str:
    """The journal line of one record: its body, kind and key, and the
    checksum of all three."""
    record = dict(body, kind=kind, key=key)
    record["sum"] = _record_checksum(record)
    return _canonical_json(record)


# ----------------------------------------------------- verification memos

def verification_fingerprint(module: Module, request: VerificationRequest,
                             backend_spec: str) -> str:
    """The memo key of one verification run: the post-pipeline IR's
    printed form plus every request/backend knob that can change the
    outcome (the concrete input too: the interpreter runs on it).  Two
    submissions with identical optimized IR, request, and backend
    configuration are the same verification.  The wall-clock budget is
    left out: :func:`verify_memoized` never records an outcome the clock
    cut, so no memo depends on it."""
    parts = [
        backend_spec,
        request.entry,
        str(request.symbolic_input_bytes),
        request.concrete_input.hex(),
        str(request.max_instructions),
        print_module(module),
    ]
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


def relcheck_fingerprint(module_a: Module, module_b: Module,
                         spec: str) -> str:
    """The memo key of one translation-validation run: both modules'
    printed IR plus the relcheck configuration's canonical spec
    (:meth:`repro.relcheck.RelcheckConfig.spec`).  The leading tag keeps
    the key space disjoint from verification memos."""
    parts = ["relcheck", spec, print_module(module_a), print_module(module_b)]
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


def outcome_to_memo(outcome: VerificationOutcome) -> Dict[str, object]:
    """The one encoding of a completed verification: the memo payload,
    and the outcome part of the service's ``verify`` reply."""
    return {
        "backend": outcome.backend,
        "paths": outcome.paths,
        "errors": outcome.errors,
        "instructions": outcome.instructions,
        "timed_out": outcome.timed_out,
        "engine_errors": outcome.engine_errors,
        "termination_reason": outcome.termination_reason,
        "bug_signatures": sorted(list(signature)
                                 for signature in outcome.bug_signatures),
        "verify_seconds": outcome.seconds,
        "solver": dict(outcome.solver_stats),
    }


def memo_to_outcome(payload: Dict[str, object],
                    backend: str) -> VerificationOutcome:
    """The outcome a memo payload records, with ``provenance="memo-hit"``,
    ``seconds=0.0`` (the hit costs no verification time) and no
    ``detail``.  Raises on a payload this build cannot decode, which
    :meth:`SolverKnowledgeStore.memo_lookup` turns into a miss."""
    return VerificationOutcome(
        backend=backend,
        seconds=0.0,
        instructions=int(payload["instructions"]),
        paths=int(payload["paths"]),
        errors=int(payload["errors"]),
        timed_out=bool(payload["timed_out"]),
        engine_errors=int(payload["engine_errors"]),
        termination_reason=str(payload["termination_reason"]),
        bug_signatures=frozenset(
            tuple(signature) for signature in payload["bug_signatures"]),
        solver_stats=dict(payload["solver"]),
        provenance="memo-hit",
    )


def verify_memoized(store: "SolverKnowledgeStore",
                    backend: VerificationBackend, module: Module,
                    request: VerificationRequest, key: str
                    ) -> VerificationOutcome:
    """Answer a verification from ``store``'s memo under ``key`` (a
    :func:`verification_fingerprint`), or prime the store's table, run
    ``backend`` (built on ``store.caches``), record the outcome and fold
    what the table learned into the store.  Saving is the caller's.

    An outcome the clock cut — the run's wall-clock budget or a solver
    query deadline — is not recorded: on a loaded machine it would
    otherwise answer every later identical request.  Truncation by a
    path, instruction or fork budget counts work, not time, so those
    outcomes are recorded."""
    outcome = store.memo_lookup(
        key, lambda payload: memo_to_outcome(payload, backend.describe()))
    if outcome is None:
        store.prime()
        outcome = backend.verify(module, request)
        if outcome.termination_reason != "timeout" and \
                not outcome.solver_stats.get("query_deadlines"):
            store.memo_record(key, outcome_to_memo(outcome))
        store.absorb(store.caches)
    return outcome


# ------------------------------------------------------------------- store

class SolverKnowledgeStore:
    """The persistent knowledge store: the solver's exact group results
    plus verification memos, living in one append-only JSON-lines file.

    ``path=None`` makes a memory-only store (the service without
    ``--store``): the same API, with :meth:`load`/:meth:`save` as no-ops.
    All mutating methods are thread-safe — the service calls them from
    worker-pool threads."""

    def __init__(self, path: Optional[object] = None) -> None:
        self.path = None if path is None else Path(path)
        self._lock = threading.Lock()
        #: The one table every run through the store solves into.
        self.caches = SharedSolverCaches()
        self._prime_lock = threading.Lock()
        #: What the last load could not use ("" = nothing): why it came
        #: up cold, or how many damaged record lines it skipped.
        self.load_error = ""
        #: Where a store file this build cannot read was moved aside
        #: ("" = never).  The original is kept for post-mortems; the
        #: service continues cold instead of crash-looping on it.
        self.quarantined = ""
        self._reset()

    def _reset(self) -> None:
        self._groups: Dict[str, dict] = {}
        self._memos: Dict[str, dict] = {}
        #: Solver groups (keys of ``SharedSolverCaches.results``) whose
        #: record this store holds; :meth:`absorb` skips them unhashed.
        self._known: Set[FrozenSet[Expr]] = set()
        #: ``(kind, key)`` of every record learned since the last
        #: successful save: the next save's batch.
        self._pending: Set[Tuple[str, str]] = set()
        #: What :meth:`prime` added to :attr:`caches` since the last load
        #: (``None``: it has not run).
        self.primed_entries: Optional[int] = None

    def __len__(self) -> int:
        return len(self._groups) + len(self._memos)

    @property
    def memo_count(self) -> int:
        return len(self._memos)

    # ------------------------------------------------------------- loading
    def load(self) -> bool:
        """Read the store file.  Returns True when warm knowledge was
        loaded.  A missing, empty or unreadable file, or one whose header
        is foreign or of another version, leaves the store empty; a
        damaged record line is skipped while the rest loads.  Either way
        the reason is in :attr:`load_error` — never an exception."""
        with self._lock:
            self._reset()
            self.load_error = ""
            if self.path is None:
                return False
            if _STORE_LOAD.armed:
                try:
                    _STORE_LOAD.fire()
                except StoreError as exc:
                    # An injected read failure: degrade to a cold start,
                    # file untouched (it is not corrupt, just unreadable).
                    self.load_error = f"fault: {exc}"
                    return False
            try:
                text = self.path.read_bytes().decode("utf-8", "replace")
            except FileNotFoundError:
                self.load_error = "missing"
                return False
            except OSError as exc:
                self.load_error = f"unreadable: {exc}"
                return False
            lines = [line for line in text.split("\n") if line]
            if not lines:
                self.load_error = "empty"
                return False
            try:
                header = json.loads(lines[0])
                if not isinstance(header, dict) or \
                        header.get("format") != FORMAT_NAME:
                    raise ValueError("not a solver store")
                if header.get("version") != FORMAT_VERSION:
                    raise ValueError(
                        f"version {header.get('version')!r} "
                        f"(this build reads {FORMAT_VERSION})")
            except (ValueError, RecursionError) as exc:
                self.load_error = f"corrupt: {exc}"
                self.quarantined = self._quarantine()
                return False
            damaged = self._parse(lines)
            if damaged:
                self.load_error = f"skipped damaged record lines: {damaged}"
            return len(self) > 0

    def _quarantine(self) -> str:
        """Move a store file this build cannot read aside to
        ``<path>.corrupt-<n>``, so the next save starts a new journal.
        Returns that path, or ``""`` when the rename failed (the store
        is cold either way)."""
        for n in range(1, 1000):
            target = Path(f"{self.path}.corrupt-{n}")
            if target.exists():
                continue
            try:
                os.replace(self.path, target)
            except OSError:
                return ""
            return str(target)
        return ""

    def _parse(self, lines: List[str]) -> int:
        """Load the record lines after the header and return how many were
        damaged.  A later memo line replaces an earlier one; the first
        line for a group wins, as in ``remember``."""
        damaged = 0
        for line in lines[1:]:
            if line == _HEADER:
                continue  # a writer that created the file concurrently
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):
                record = None
            if not isinstance(record, dict) or \
                    record.pop("sum", None) != _record_checksum(record):
                damaged += 1
                continue
            kind, key = record.pop("kind", None), record.pop("key", None)
            if kind == "group" and isinstance(key, str):
                self._groups.setdefault(key, record)
            elif kind == "memo" and isinstance(key, str):
                self._memos[key] = record
            else:
                damaged += 1
        return damaged

    # -------------------------------------------------------------- saving
    def save(self) -> None:
        """Append the records learned since the last successful save.

        The batch goes to the file in one ``O_APPEND`` write followed by
        an fsync; a missing or empty file gets the header and every
        record this store holds.  The file is never read, merged or
        rewritten, so concurrent writers cannot drop each other's
        batches.  A failed save raises :class:`StoreError` and keeps its
        batch for the retry; what it left in the file is at most a torn
        line, which the loader skips."""
        if self.path is None:
            return
        with self._lock:
            tables = {"group": self._groups, "memo": self._memos}
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(self.path,
                             os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
                try:
                    lines = []
                    if os.fstat(fd).st_size == 0:
                        # A new journal: the header and every record.
                        lines.append(_HEADER)
                        self._pending.update(
                            (kind, key) for kind, table in tables.items()
                            for key in table)
                    elif not self._pending:
                        return
                    lines.extend(_record_line(kind, key, tables[kind][key])
                                 for kind, key in sorted(self._pending))
                    payload = "".join("\n" + line for line in lines).encode()
                    if _STORE_WRITE.armed:
                        # The torn-append window: half the batch is in the
                        # file.  An injected kill here must cost no record
                        # saved before, and the retry must append it whole.
                        half = len(payload) // 2
                        os.write(fd, payload[:half])
                        _STORE_WRITE.fire()
                        payload = payload[half:]
                    if os.write(fd, payload) != len(payload):
                        raise OSError("short write")
                    os.fsync(fd)
                finally:
                    os.close(fd)
            except OSError as exc:
                raise StoreError(f"store save failed: {exc}",
                                 site="store.write") from exc
            self._pending.clear()

    # ------------------------------------------------- cache <-> store
    def prime(self) -> int:
        """Once per load, put every stored group result into :attr:`caches`
        (tagged so hits count as ``SolverStats.store_hits``; entries it
        holds win) and return how many were added; a concurrent caller
        waits for those entries, and later calls return 0.  A record that
        no longer decodes is skipped, never fatal; every group that
        decodes is one :meth:`absorb` will not fingerprint again."""
        with self._prime_lock:
            if self.primed_entries is not None:
                return 0
            with self._lock:
                records = list(self._groups.values())
            added = 0
            decoded = []
            for record in records:
                try:
                    constraints = tuple(expr_from_wire(wire)
                                        for wire in record["constraints"])
                    model = record["model"]
                    result = SolverResult(
                        bool(record["satisfiable"]),
                        None if model is None else _model_from_wire(model))
                    canonical = bool(record["canonical"])
                except (WireError, KeyError, TypeError, RecursionError):
                    continue
                decoded.append(frozenset(constraints))
                added += self.caches.remember(constraints, result, canonical,
                                              from_store=True)
            with self._lock:
                self._known.update(decoded)
            self.primed_entries = added
            return added

    def absorb(self, caches: SharedSolverCaches) -> int:
        """Fold every exact group result ``caches`` holds into the store
        (existing records win — knowledge, once recorded, is stable).
        Returns the number of new records.  Only groups the store does not
        hold yet are fingerprinted: hash-consing makes an equal group the
        same key, so a known one costs one set lookup."""
        entries = caches.entries()
        added = 0
        with self._lock:
            for key, result, canonical in entries:
                if key in self._known:
                    continue
                self._known.add(key)
                fingerprint = group_fingerprint(key)
                if fingerprint not in self._groups:
                    self._groups[fingerprint] = {
                        "constraints": _sorted_wires(key),
                        "satisfiable": result.satisfiable,
                        "model": None if result.model is None
                        else dict(result.model),
                        "canonical": canonical,
                    }
                    self._pending.add(("group", fingerprint))
                    added += 1
        return added

    # ---------------------------------------------------------------- memos
    def memo_lookup(self, key: str,
                    decode: Callable[[Dict[str, object]], _Decoded]
                    ) -> Optional[_Decoded]:
        """The memo under ``key`` as ``decode`` rebuilds it, or ``None``.
        A payload of a shape ``decode`` rejects (damaged, or written by a
        build with other fields) is a miss like a missing one: the caller
        re-runs and its fresh result overwrites the payload."""
        with self._lock:
            payload = self._memos.get(key)
        if payload is None:
            return None
        try:
            return decode(payload)
        except (AttributeError, KeyError, TypeError, ValueError):
            return None

    def memo_record(self, key: str, payload: Dict[str, object]) -> None:
        with self._lock:
            self._memos[key] = payload
            self._pending.add(("memo", key))


__all__ = [
    "FORMAT_NAME", "FORMAT_VERSION", "SolverKnowledgeStore", "WireError",
    "expr_from_wire", "expr_to_wire",
    "group_fingerprint", "memo_to_outcome", "outcome_to_memo",
    "relcheck_fingerprint", "verification_fingerprint", "verify_memoized",
]
