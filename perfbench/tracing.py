"""Spans for the traced benchmark run.

The program under test has no tracing of its own, so the traced run wraps
the layers' public functions from here.  :func:`install` replaces each one
with a wrapper that records a span (name, start, end, parent, job) and
calls the original; the returned callable puts every original back.
Layers too hot to wrap (solver queries, engine steps) are read from the
counters their public API already returns instead (see ``metrics.py``).

Spans stay in memory and are written once, at the end of a run, as a
Chrome trace-event file (``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded span: [name, start, end, parent span or None, job, note].
#: A plain list so the wrapper can fill ``end`` in place.
Span = list

#: AnalysisManager getters the passes call.
ANALYSIS_GETTERS = ("cfg", "dominator_tree", "loop_info", "value_ranges",
                    "available_memory", "call_graph")

#: Store methods wrapped in the traced server (the memo lookup included).
STORE_METHODS = ("load", "prime", "absorb", "save", "memo_lookup")


class Tracer:
    """Collects spans in memory.  One per process: forked job children
    inherit the parent's and ship their spans back with each result; the
    traced server keeps its own until shutdown."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.job = ""
        self._local = threading.local()

    def begin_job(self, job: str) -> None:
        """Start a job: later spans carry ``job`` and earlier ones are
        dropped (the parent already received them)."""
        self.job = job
        self.spans = []

    def wrap(self, name: str, function: Callable,
             note: Optional[Callable[[tuple], object]] = None) -> Callable:
        """``function`` recording a span per call; ``note`` picks a value
        from the arguments to keep with the span."""
        tracer = self
        local = self._local

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    tracer.job, None if note is None else note(args)]
            tracer.spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped_by_perfbench__ = True
        return traced

    def export(self) -> List[tuple]:
        """The spans as picklable tuples ``(name, start, end, parent
        index or -1, job, note)``."""
        index = {id(span): position for position, span
                 in enumerate(self.spans)}
        return [(span[0], span[1], span[2],
                 -1 if span[3] is None else index.get(id(span[3]), -1),
                 span[4], span[5]) for span in self.spans]


def _patch(undo: list, owner: object, attribute: str,
           replacement: Callable) -> None:
    undo.append((owner, attribute, owner.__dict__[attribute]
                 if isinstance(owner, type) else getattr(owner, attribute)))
    setattr(owner, attribute, replacement)


def install(tracer: Tracer, server_side: bool = False) -> Callable[[], None]:
    """Wrap the layers' public functions; return the undo callable.

    ``server_side`` adds the knowledge-store methods and the memo
    fingerprint the verification server calls (the traced launcher sets
    it)."""
    import repro.interp as interp
    import repro.pipelines.session as session
    import repro.relcheck as relcheck
    import repro.symex.backend as symex_backend
    from repro.analysis import AnalysisManager
    from repro.passes.registry import registered_passes
    from repro.service.client import ServiceClient
    from repro.symex.parallel import ParallelExecutor

    undo: list = []
    _patch(undo, session.CompilerSession, "compile", tracer.wrap(
        "pipeline.compile", session.CompilerSession.compile))
    # The parse span keeps its source, for frontend.tokens_per_s.
    _patch(undo, session, "parse", tracer.wrap(
        "frontend.parse", session.parse, note=lambda args: args[0]))
    for attribute, name in (("analyze", "frontend.sema"),
                            ("lower", "frontend.lower"),
                            ("verify_module", "ir.verify")):
        _patch(undo, session, attribute,
               tracer.wrap(name, getattr(session, attribute)))

    # Every registered pass class gets its own wrapper of the
    # run_on_module it resolves to, looked up before any is replaced so a
    # subclass never wraps its parent's wrapper.
    originals = []
    for info in registered_passes():
        cls = type(info.factory())
        if any(cls is seen for seen, _, _ in originals):
            continue
        originals.append((cls, info.name, cls.run_on_module))
    for cls, name, original in originals:
        undo.append((cls, "run_on_module",
                     cls.__dict__.get("run_on_module")))
        cls.run_on_module = tracer.wrap(f"pass.{name}", original)

    for getter in ANALYSIS_GETTERS:
        _patch(undo, AnalysisManager, getter, tracer.wrap(
            f"analysis.{getter}", getattr(AnalysisManager, getter)))
    _patch(undo, symex_backend.SymexBackend, "verify", tracer.wrap(
        "symex.verify", symex_backend.SymexBackend.verify))
    _patch(undo, symex_backend, "explore",
           tracer.wrap("symex.explore", symex_backend.explore))
    _patch(undo, ParallelExecutor, "run",
           tracer.wrap("symex.parallel_run", ParallelExecutor.run))
    _patch(undo, interp, "run_module",
           tracer.wrap("interp.run_module", interp.run_module))
    _patch(undo, relcheck, "relcheck_modules",
           tracer.wrap("relcheck.prove", relcheck.relcheck_modules))
    _patch(undo, ServiceClient, "verify",
           tracer.wrap("service.client_verify", ServiceClient.verify))
    if server_side:
        import repro.service.server as server
        from repro.service.store import SolverKnowledgeStore

        for method in STORE_METHODS:
            _patch(undo, SolverKnowledgeStore, method, tracer.wrap(
                f"store.{method}", getattr(SolverKnowledgeStore, method)))
        _patch(undo, server, "verification_fingerprint", tracer.wrap(
            "store.fingerprint", server.verification_fingerprint))

    def restore() -> None:
        for owner, attribute, original in reversed(undo):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    return restore


# ------------------------------------------------------------ arithmetic

def _covered(intervals: Sequence[Tuple[float, float]], low: float,
             high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[tuple]) -> List[float]:
    """Each span's duration minus the part of it its children cover.
    ``spans`` are ``(name, start, end, parent index, ...)`` tuples."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [(span[2] - span[1])
            - _covered(children.get(position, ()), span[1], span[2])
            for position, span in enumerate(spans)]


def merge(groups: Iterable[Sequence[tuple]]) -> List[tuple]:
    """Concatenate exported span lists, re-basing parent indices."""
    merged: List[tuple] = []
    for spans in groups:
        offset = len(merged)
        merged.extend(span[:3] + (span[3] + offset if span[3] >= 0 else -1,)
                      + span[4:] for span in spans)
    return merged


def layer_of(name: str) -> str:
    """The layer a span name belongs to: ``pass.sccp`` -> ``passes``."""
    head = name.split(".", 1)[0]
    return {"pass": "passes", "pipeline": "pipelines"}.get(head, head)


def summarize(spans: Sequence[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total (inclusive) and self seconds."""
    selfs = self_times(spans)
    summary: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, selfs):
        entry = summary.setdefault(span[0], {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += own
    return summary


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call costs over a plain one, measured here."""
    tracer = Tracer()

    def plain() -> None:
        return None

    wrapped = tracer.wrap("calibration", plain)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            plain()
        middle = time.perf_counter()
        for _ in range(calls):
            wrapped()
        end = time.perf_counter()
        tracer.spans = []
        best = min(best, ((end - middle) - (middle - start)) / calls)
    return max(best, 0.0)


#: Most events a trace file holds (a traced pass makes about 70 000); the
#: summary in ``otherData`` always covers every span.
MAX_EVENTS = 400_000


def write_chrome_trace(path: str, groups: Iterable[Tuple[str, Sequence[tuple]]],
                       origin: float, other: Dict[str, object]) -> int:
    """Write spans as Chrome trace events; ``groups`` are ``(process
    label, spans)`` pairs.  Returns the number of events written."""
    events: List[dict] = []
    for pid, (label, spans) in enumerate(groups, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": label}})
        for position, span in enumerate(spans):
            if len(events) >= MAX_EVENTS:
                break
            events.append({
                "name": span[0], "cat": layer_of(span[0]), "ph": "X",
                "ts": round((span[1] - origin) * 1e6, 3),
                "dur": round((span[2] - span[1]) * 1e6, 3),
                "pid": pid, "tid": str(span[4]),
                "args": {"job": span[4], "parent": span[3],
                         "index": position},
            })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": other}, handle)
    return len(events)
