"""Local jobs: compile-heavy, verify-heavy and relcheck-sweep.

Jobs run one at a time, each in a forked child, so the engine's budget is
backed by a hard limit: the engine gets the job's wall-clock limit and the
parent kills the child at that limit plus ``GRACE_S``.  (Whether a job that
returned in time stayed within L at nominal CPU speed is decided later, by
``metrics.mark_late``.)  A child reports every finished unit (one build,
or one relcheck pair) through a pipe as soon as it has it, so a kill loses
only the unit in progress; the rest of a build chain restarts in a new
child.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import sys
import time
import traceback
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.relcheck
# relcheck_modules imports the service's store on first use.  Importing
# it here, at set-up, keeps every job child from paying for that import.
import repro.service  # noqa: F401
from repro.pipelines import CompilerSession, OptLevel
from repro.relcheck import RelcheckConfig
from repro.verification import VerificationRequest, make_backend
from repro.workloads import get_workload

import speed
from jobs import LocalJob
from oracle import Oracle, check_verdict, replay_bugs
from tracing import Tracer

#: Seconds past the wall-clock limit before the parent stops a job's child.
GRACE_S = 0.3
#: Seconds a stopped child gets to report its partial record (its spans
#: up to the stop) before it is killed.
STOP_WAIT_S = 0.5
#: Smallest engine budget handed over when compile used up the limit.
MIN_BUDGET_S = 0.01
#: The nightly registry sweep's relcheck settings (tests/test_relcheck.py).
RELCHECK_SETTINGS = dict(input_bytes=2, max_paths=64,
                         query_deadline_seconds=1.0, workers=1)

_SOLVER_FIELDS = ("time_seconds", "queries", "group_queries", "cache_hits",
                  "ubtree_hits", "ubtree_misses", "assignments_tried",
                  "cores_minimized", "unknown_results", "query_deadlines")
_RELCHECK_FIELDS = ("paths_checked", "paths_proved", "trap_paths_checked",
                    "trap_agreements", "equivalence_queries",
                    "equivalence_folded", "unknown_paths", "phantom_paths")

Unit = Tuple[OptLevel, ...]


class _Stopped(BaseException):
    """Raised in a job child when the parent stops it at the limit; a
    BaseException so the engine's error containment lets it through."""


def _stop(signum, frame):
    raise _Stopped()


def units_of(workload: str, job: LocalJob) -> List[Unit]:
    """A build job's units are its levels; a relcheck job is one unit."""
    if workload == "relcheck-sweep":
        return [job.levels]
    return [(level,) for level in job.levels]


def _record(job: LocalJob, unit: Unit, limit: float) -> dict:
    return {"job": job.ident + ("" if len(job.levels) == 1 or len(unit) > 1
                                else str(unit[0])),
            "program": job.program,
            "level": ",".join(str(level) for level in unit),
            "bytes": job.input_bytes, "limit_s": limit, "latency_s": 0.0,
            "started": time.perf_counter(),
            "cause": "", "detail": "", "returned": True, "counters": {},
            "spans": []}


def _solver_counters(stats: object, counters: Dict[str, float]) -> None:
    for name in _SOLVER_FIELDS:
        counters[f"solver.{name}"] = counters.get(f"solver.{name}", 0) \
            + getattr(stats, name)


def _compile_counters(result: object, counters: Dict[str, float]) -> None:
    history = result.pass_history
    stats = result.analysis_stats
    counters.update({
        "compile_s": counters.get("compile_s", 0.0) + result.compile_seconds,
        "pass_runs": counters.get("pass_runs", 0) + len(history),
        "pass_changed": counters.get("pass_changed", 0)
        + sum(1 for run in history if run.changed),
        "instructions_out": counters.get("instructions_out", 0)
        + result.instruction_count,
        "analysis_hits": counters.get("analysis_hits", 0) + stats.hits,
        "analysis_misses": counters.get("analysis_misses", 0) + stats.misses,
        "analysis_transfers": counters.get("analysis_transfers", 0)
        + stats.transfers,
        "analysis_invalidations": counters.get("analysis_invalidations", 0)
        + stats.invalidations,
    })


def build_unit(job: LocalJob, unit: Unit, limit: float, oracle: Oracle,
               session: CompilerSession) -> dict:
    """Compile one level, verify it with a fresh default backend, replay
    every reported bug and check the verdict."""
    record = _record(job, unit, limit)
    counters = record["counters"]
    start = time.perf_counter()
    result = session.compile(get_workload(job.program).source,
                             level=unit[0])
    budget = max(limit - (time.perf_counter() - start), MIN_BUDGET_S)
    outcome = make_backend("symex").verify(result.module, VerificationRequest(
        symbolic_input_bytes=job.input_bytes, timeout_seconds=budget))
    report = outcome.detail
    replays = replay_bugs(result.module, report.bugs, oracle)
    expected = oracle.expected(job.program, job.input_bytes)
    reported = oracle.classes_of(outcome.bug_signatures)
    wrong = check_verdict(expected, reported, replays)
    record["latency_s"] = time.perf_counter() - start

    _compile_counters(result, counters)
    counters.update({
        "explore_s": outcome.seconds,
        "paths": report.stats.total_paths, "forks": report.stats.forks,
        "instructions": report.stats.instructions_interpreted,
        "budget_hits": 1 if outcome.termination_reason else 0,
        "engine_errors": outcome.engine_errors,
        "replays": len(replays),
        "replays_confirmed": sum(1 for r in replays if r["confirmed"]),
    })
    _solver_counters(report.solver_stats, counters)
    if outcome.engine_errors:
        record["cause"] = "engine"
        record["detail"] = "; ".join(report.diagnostics) or "engine error"
    elif outcome.termination_reason:
        # A truncated verdict is wrong only where what it did report is.
        confirmed = all(r["confirmed"] for r in replays)
        if reported <= expected and confirmed:
            record["cause"] = "budget"
            record["detail"] = f"{outcome.termination_reason} budget"
        else:
            record["cause"], record["detail"] = "wrong", wrong
    elif wrong:
        record["cause"], record["detail"] = "wrong", wrong
    elif record["latency_s"] > limit:
        record["cause"] = "limit"
        record["detail"] = "returned after the hard limit"
    return record


def relcheck_unit(job: LocalJob, unit: Unit, limit: float,
                  oracle: Oracle, session: CompilerSession) -> dict:
    """Compile both levels and prove them path-equivalent; any divergence
    is a wrong verdict (the registry is expected clean)."""
    record = _record(job, unit, limit)
    counters = record["counters"]
    source = get_workload(job.program).source
    start = time.perf_counter()
    reference = session.compile(source, level=unit[0])
    optimized = session.compile(source, level=unit[1])
    budget = max(limit - (time.perf_counter() - start), MIN_BUDGET_S)
    config = RelcheckConfig(timeout_seconds=budget, **RELCHECK_SETTINGS)
    report = repro.relcheck.relcheck_modules(
        reference.module, optimized.module, config=config,
        pair=(str(unit[0]), str(unit[1])))
    record["latency_s"] = time.perf_counter() - start

    for result in (reference, optimized):
        _compile_counters(result, counters)
    for name in _RELCHECK_FIELDS:
        counters[f"relcheck.{name}"] = getattr(report.stats, name)
    counters["budget_hits"] = 1 if report.truncated else 0
    _solver_counters(report.solver_stats, counters)
    engine = [d.describe() for d in report.divergences if d.kind == "engine"]
    wrong = [d.describe() for d in report.divergences if d.kind != "engine"]
    counters["engine_errors"] = len(engine)
    if engine:
        record["cause"], record["detail"] = "engine", "; ".join(engine)
    elif wrong:
        record["cause"] = "wrong"
        record["detail"] = "; ".join(wrong)
    elif report.truncated or report.stats.unknown_paths:
        record["cause"] = "budget"
        record["detail"] = (f"truncated={report.truncated} "
                            f"unknown_paths={report.stats.unknown_paths}")
    elif record["latency_s"] > limit:
        record["cause"] = "limit"
        record["detail"] = "returned after the hard limit"
    return record


def _child_records(workload: str, job: LocalJob, units: Sequence[Unit],
                   limit: float, oracle: Oracle,
                   tracer: Optional[Tracer]) -> Iterator[dict]:
    body = relcheck_unit if workload == "relcheck-sweep" else build_unit
    session = CompilerSession()
    for unit in units:
        record = _record(job, unit, limit)
        if tracer is not None:
            tracer.begin_job(record["job"])
        start = record["started"]
        stopped = False
        try:
            record = body(job, unit, limit, oracle, session)
        except _Stopped:
            stopped = True
            record["latency_s"] = time.perf_counter() - start
            record["returned"] = False
            record["cause"] = "limit"
            record["detail"] = "stopped at the hard limit + grace"
        except Exception as exc:  # the job fails; the run goes on
            record["latency_s"] = time.perf_counter() - start
            record["cause"] = "engine"
            record["detail"] = f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            record["spans"] = tracer.export()
        yield record
        if stopped:
            return


# ------------------------------------------------------------ the parent

def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _fork(produce: Callable[[], Iterator[dict]]) -> Tuple[int, int]:
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            signal.signal(signal.SIGUSR1, _stop)
            os.close(read_fd)
            for record in produce():
                data = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
                _write_all(write_fd, struct.pack("<Q", len(data)) + data)
        except BaseException:
            status = 1
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


class _Reader:
    """Length-prefixed records from a child's pipe, with a deadline.
    While it waits, it calls ``during`` (if any) every
    ``speed.SNAPSHOT_EVERY_S``."""

    def __init__(self, fd: int,
                 during: Optional[Callable[[], None]] = None) -> None:
        self.fd = fd
        self.buffer = bytearray()
        self.during = during

    def next(self, deadline: float) -> dict:
        while True:
            if len(self.buffer) >= 8:
                size = struct.unpack_from("<Q", self.buffer)[0]
                if len(self.buffer) >= 8 + size:
                    data = bytes(self.buffer[8:8 + size])
                    del self.buffer[:8 + size]
                    return pickle.loads(data)
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError
            if self.during is not None:
                remaining = min(remaining, speed.SNAPSHOT_EVERY_S)
            ready, _, _ = select.select([self.fd], [], [], remaining)
            if ready:
                chunk = os.read(self.fd, 1 << 20)
                if not chunk:
                    raise EOFError
                self.buffer += chunk
            elif self.during is not None:
                self.during()


def run_forked(produce: Callable[[], Iterator[dict]], count: int,
               timeout: float,
               during: Optional[Callable[[], None]] = None
               ) -> Tuple[List[dict], str, float, int]:
    """Run ``produce`` in a forked child and collect up to ``count`` of
    its records, each within ``timeout`` seconds of the one before,
    calling ``during`` (if any) at intervals while waiting.  A child that
    falls behind is stopped (SIGUSR1, so it can still send the record it
    was working on, which is then the last one returned) and killed.
    Returns the records, why they stopped early (``""``, ``"timeout"`` or
    ``"died"``), the seconds from the last record before the stop to the
    stop, and the child's peak resident set size (KiB)."""
    pid, fd = _fork(produce)
    reader = _Reader(fd, during)
    records: List[dict] = []
    stop = ""
    waited = 0.0
    mark = time.perf_counter()
    try:
        while len(records) < count:
            try:
                records.append(reader.next(mark + timeout))
            except TimeoutError:
                waited = time.perf_counter() - mark
                os.kill(pid, signal.SIGUSR1)
                try:
                    last = reader.next(time.perf_counter() + STOP_WAIT_S)
                except (TimeoutError, EOFError):
                    last = None
                if last is not None:
                    records.append(last)
                # A unit that finished just before the stop is complete;
                # the caller restarts the rest in a new child.
                if last is None or not last.get("returned", True):
                    stop = "timeout"
                break
            except EOFError:
                stop = "died"
                waited = time.perf_counter() - mark
                break
            mark = time.perf_counter()
    finally:
        os.close(fd)
        os.kill(pid, signal.SIGKILL)  # harmless once it has exited
        _, _, usage = os.wait4(pid, 0)
    return records, stop, waited, usage.ru_maxrss


def run_job(workload: str, job: LocalJob, limit: float, oracle: Oracle,
            tracer: Optional[Tracer],
            during: Optional[Callable[[], None]] = None
            ) -> Tuple[List[dict], int]:
    """Run every unit of ``job``, calling ``during`` (if any) at
    intervals while a unit runs; returns the records and the highest
    resident set size (KiB) of the children that ran them."""
    pending = units_of(workload, job)
    records: List[dict] = []
    peak_kib = 0
    while pending:
        units = list(pending)
        received, stop, waited, peak = run_forked(
            lambda: _child_records(workload, job, units, limit, oracle,
                                   tracer),
            len(units), limit + GRACE_S, during)
        peak_kib = max(peak_kib, peak)
        partial = None
        if stop == "timeout" and received and not received[-1]["returned"]:
            # The stopped unit's partial record: keep its spans, charge
            # the time the parent measured.
            partial = received.pop()
        records.extend(received)
        del pending[:len(received)]
        if stop:
            record = partial or _record(job, pending[0], limit)
            pending.pop(0)
            record["started"] = time.perf_counter() - waited
            record["latency_s"] = waited
            record["returned"] = False
            if stop == "timeout":
                record["cause"] = "limit"
                record["detail"] = "stopped at the hard limit + grace"
            else:
                record["cause"] = "engine"
                record["detail"] = "job process died"
            records.append(record)
    return records, peak_kib


def run_local(workload: str, jobs: Sequence[LocalJob], limit: float,
              oracle: Oracle, tracer: Optional[Tracer],
              between: Callable[[], None],
              during: Optional[Callable[[], None]] = None
              ) -> Tuple[List[dict], float]:
    """Run ``jobs`` in order, calling ``between`` before the first and
    after each one, while no job process exists (its time is left out of
    the wall time), and ``during`` (if any) at intervals while a job
    runs.  Returns the records, each tagged with its job's index and the
    peak resident set size of the processes that ran the job (see
    :func:`decided_peak_kib`), and the measured wall time."""
    records: List[dict] = []
    paused = 0.0

    def pause() -> None:
        nonlocal paused
        mark = time.perf_counter()
        between()
        paused += time.perf_counter() - mark

    start = time.perf_counter()
    pause()
    for index, job in enumerate(jobs):
        job_records, job_peak = run_job(workload, job, limit, oracle, tracer,
                                        during)
        for record in job_records:
            record["job_index"] = index
            record["job_peak_kib"] = job_peak
        records.extend(job_records)
        pause()
    return records, time.perf_counter() - start - paused


def decided_peak_kib(records: Sequence[dict]) -> int:
    """The peak resident set size (KiB) of the job processes whose units
    were all decided: a job cut short by a limit or its budget holds
    memory in proportion to how far it got, which follows the CPU's
    speed.  (Of all job processes when none was.)  Call it once every
    record is classified."""
    peaks: Dict[int, int] = {}
    failed = set()
    for record in records:
        peaks[record["job_index"]] = record["job_peak_kib"]
        if record["cause"]:
            failed.add(record["job_index"])
    decided = [peak for index, peak in peaks.items() if index not in failed]
    return max(decided or peaks.values(), default=0)
