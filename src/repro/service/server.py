"""The verification service's asyncio front door.

One :class:`VerificationServer` listens on a local unix-domain socket and
speaks a JSON-line protocol (one request object per line, one response
object per line — see ``docs/service.md``).  Verification jobs flow
through the same plumbing every other driver uses —
:class:`~repro.pipelines.session.CompilerSession` for compilation,
:func:`~repro.verification.make_backend` for the engine — with three
service-level layers on top:

* **In-flight dedupe.**  Jobs are keyed by a content hash of their
  resolved source + request + backend configuration.  A job submitted
  while an identical one is running does not start a second verification;
  it awaits the running one's result (and is marked ``"deduped": true``).
* **Verification memo.**  Completed jobs are recorded in the
  service's :class:`~repro.service.store.SolverKnowledgeStore` keyed by
  post-pipeline IR fingerprint; resubmitting an unchanged function is
  answered from the memo without running symex
  (``"provenance": "memo-hit"``).
* **Shared, store-primed solver caches.**  All jobs solve into the
  store's one :class:`~repro.symex.solver.SharedSolverCaches` table,
  primed by the first job that misses the memo; a job whose constraint
  groups are answered by primed entries reports
  ``"provenance": "warm-store"``.  Everything a job learned is absorbed
  back into the store, which appends what the job learned to its file
  after every job that was not a memo hit.

Concurrency model: the asyncio loop only parses requests and awaits; the
blocking work (compile + verify) runs on a thread pool.  Compiles are
serialized behind one lock (the session's front-end cache is not
thread-safe; compiles are the cheap part), verifications run in parallel
across the pool — each solver search runs outside the caches' lock.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

from ..faults import (
    DeadlineExceeded, EngineError, ProtocolError, ReproError, StoreError,
    site as _fault_site,
)
from ..pipelines import CompileOptions, CompilerSession, parse_opt_level
from ..verification import VerificationRequest, make_backend
from ..workloads import get_workload
from .store import (
    SolverKnowledgeStore, outcome_to_memo, verification_fingerprint,
    verify_memoized,
)

#: Seconds past a job's cooperative deadline before the server stops
#: waiting and answers ``error_kind="deadline"``.  The engine's own
#: budget checks normally fire first; the backstop only triggers when a
#: job wedges (the failure the deadline exists for).
DEADLINE_GRACE = 5.0

#: Longest request line the server reads, in bytes before its newline.  A
#: longer line is answered with ``error_kind="protocol"`` and its
#: connection closed.
MAX_REQUEST_BYTES = 1 << 20

#: Largest ``input_bytes`` a verify job may ask for: the engine builds one
#: symbolic byte per unit before any budget applies, so an unbounded value
#: could exhaust the server's memory (the registry's largest default is 6).
MAX_INPUT_BYTES = 1024

#: On shutdown, the longest the server waits for in-flight jobs to finish
#: and their clients to get answers before it tears the pool down.
DRAIN_SECONDS = 30.0

#: Fault site wrapping request dispatch (``docs/robustness.md``): proves
#: a fault inside the handler produces one structured error response and
#: leaves the server answering.
_SERVER_HANDLE = _fault_site("server.handle", EngineError)


def _field_float(request: Dict[str, object], name: str, default: float,
                 minimum: float = 0.0) -> float:
    """A finite float request field (numeric strings accepted), or a
    :class:`ProtocolError` naming the offending field."""
    value = request.get(name, default)
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise ProtocolError(
                f"'{name}' must be a number, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"'{name}' must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ProtocolError(f"'{name}' must be finite, got {value!r}")
    if value < minimum:
        raise ProtocolError(
            f"'{name}' must be >= {minimum:g}, got {value:g}")
    return value


def _field_int(request: Dict[str, object], name: str, default: int,
               minimum: int = 0, maximum: Optional[int] = None) -> int:
    """An integer request field (digit strings accepted), or a
    :class:`ProtocolError` naming the offending field."""
    value = request.get(name, default)
    if isinstance(value, str):
        try:
            value = int(value, 10)
        except ValueError:
            raise ProtocolError(
                f"'{name}' must be an integer, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"'{name}' must be an integer, got {value!r}")
    if value < minimum:
        raise ProtocolError(f"'{name}' must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ProtocolError(f"'{name}' must be <= {maximum}, got {value}")
    return value


async def _skip_line(reader: asyncio.StreamReader) -> None:
    """Read and drop the rest of an over-long request line, through its
    newline or the end of input, so a client still sending it can read
    the reply."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return


class VerificationServer:
    """The async front door (see module docstring).

    Parameters
    ----------
    socket_path:
        Unix-domain socket to listen on (created; a stale file is
        replaced).
    store_path:
        Knowledge-store file, saved after every job that was not a memo
        hit and on shutdown.  ``None`` runs memory-only: memoization and
        cache sharing still work within the server's lifetime, nothing
        persists.
    backend:
        Backend spec for every job (default ``"symex"``).  Backends that
        accept injected caches solve into the store's table.
    pool_size:
        Worker threads verifying concurrently.
    max_pending:
        Backpressure bound: distinct jobs in flight at once (duplicates
        ride an existing job for free).  A submission past the bound is
        rejected with ``error_kind="backpressure"`` and a ``retry_after``
        hint instead of queueing without limit.  0 = ``4 * pool_size + 4``.

    On shutdown the server waits up to :data:`DRAIN_SECONDS` for in-flight
    jobs to finish (and their clients to get answers) before tearing the
    pool down.
    """

    def __init__(self, socket_path: object, store_path: object = None,
                 backend: str = "symex", pool_size: int = 2,
                 max_pending: int = 0) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self.socket_path = str(socket_path)
        self.pool_size = pool_size
        self.max_pending = max_pending or 4 * pool_size + 4
        self.store = SolverKnowledgeStore(store_path)
        #: One backend instance serves every job (verify() is stateless);
        #: backends that take injected caches get the store's table.
        self.backend = make_backend(backend, caches=self.store.caches)
        self.session = CompilerSession()
        self.stats: Dict[str, int] = {
            "jobs_completed": 0, "jobs_failed": 0, "jobs_deduped": 0,
            "jobs_rejected": 0, "jobs_deadline_expired": 0,
            "memo_hits": 0, "warm_store": 0, "cold": 0, "saves": 0,
            "saves_failed": 0,
        }
        self._session_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._inflight: Dict[str, "asyncio.Future"] = {}
        #: Distinct jobs currently running (event-loop-thread only).
        self._active_jobs = 0
        #: Runner tasks, referenced so the loop cannot drop them mid-job.
        self._runners: set = set()
        #: Connection-handler tasks between reading a request and writing
        #: its reply; shutdown waits for them as it waits for jobs.
        self._answering: set = set()
        self._draining = False
        self._pool: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Load the store (not prime it) and start listening."""
        self._shutdown = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.pool_size, thread_name_prefix="verify")
        self.store.load()
        directory = os.path.dirname(self.socket_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        try:
            os.unlink(self.socket_path)
        except FileNotFoundError:
            pass
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=self.socket_path,
            limit=MAX_REQUEST_BYTES)

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request arrives, then clean up:
        stop accepting, drain in-flight jobs (bounded by
        :data:`DRAIN_SECONDS`), save the store, remove the socket."""
        if self._server is None:
            await self.start()
        try:
            await self._shutdown.wait()
        finally:
            self._draining = True
            self._server.close()
            await self._server.wait_closed()
            # A finished job is not an answered client: its handler may
            # still be writing the reply, and tearing down now would cancel
            # it.  So wait for both, bounded by DRAIN_SECONDS.
            drain_until = time.monotonic() + DRAIN_SECONDS
            while (self._active_jobs > 0 or self._answering) and \
                    time.monotonic() < drain_until:
                await asyncio.sleep(0.05)
            self._pool.shutdown(wait=True)
            self._save_store()
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def _save_store(self) -> None:
        """Persist the store, degrading a failed save to a counted stat —
        persistence is best-effort, shutdown and job completion are not
        allowed to crash on it."""
        try:
            self.store.save()
        except StoreError:
            with self._stats_lock:
                self.stats["saves_failed"] += 1
            return
        with self._stats_lock:
            self.stats["saves"] += 1

    def run(self) -> None:
        """Blocking entry point: serve until shutdown (the CLI's ``serve``
        subcommand, and test servers on a background thread)."""
        asyncio.run(self.serve_until_shutdown())

    # ------------------------------------------------------------- protocol
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        handler = asyncio.current_task()
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # a last line without its newline
                    if not line:
                        break
                except asyncio.LimitOverrunError:
                    await _skip_line(reader)
                    line = None
                self._answering.add(handler)
                try:
                    await self._answer(line, writer)
                finally:
                    self._answering.discard(handler)
                if line is None:
                    break
        except asyncio.CancelledError:
            pass  # server shutting down mid-read: just close the connection
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError):
                pass

    async def _answer(self, line: Optional[bytes],
                      writer: asyncio.StreamWriter) -> None:
        """Dispatch one request line and write its reply (``None``: the
        line was longer than ``MAX_REQUEST_BYTES``)."""
        try:
            if line is None:
                raise ProtocolError(
                    f"request line longer than {MAX_REQUEST_BYTES} bytes")
            try:
                request = json.loads(line)
            except ValueError as exc:
                raise ProtocolError(
                    f"request is not valid JSON: {exc}") from None
            response = await self._dispatch(request)
        except asyncio.CancelledError:
            raise
        except ReproError as exc:
            response = self._error_response(exc)
            with self._stats_lock:
                self.stats["jobs_failed"] += 1
        except Exception as exc:
            response = {"ok": False, "error": str(exc)}
            with self._stats_lock:
                self.stats["jobs_failed"] += 1
        writer.write((json.dumps(response) + "\n").encode("utf-8"))
        await writer.drain()

    @staticmethod
    def _error_response(exc: ReproError) -> Dict[str, object]:
        """The structured ``ok: false`` reply for a taxonomy error."""
        response: Dict[str, object] = {
            "ok": False, "error": str(exc),
            "error_kind": exc.kind, "retryable": exc.retryable,
        }
        if exc.site:
            response["site"] = exc.site
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            response["retry_after"] = retry_after
        return response

    async def _dispatch(self, request: object) -> Dict[str, object]:
        if _SERVER_HANDLE.armed:
            _SERVER_HANDLE.fire()
        if not isinstance(request, dict):
            raise ProtocolError("request must be a JSON object")
        op = request.get("op", "verify")
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            with self._stats_lock:
                snapshot = dict(self.stats)
            snapshot.update(ok=True, op="stats",
                            active_jobs=self._active_jobs,
                            max_pending=self.max_pending,
                            primed_entries=self.store.primed_entries or 0,
                            store_records=len(self.store),
                            memo_count=self.store.memo_count,
                            backend=self.backend.describe(),
                            pool_size=self.pool_size)
            return snapshot
        if op == "shutdown":
            self._shutdown.set()
            return {"ok": True, "op": "shutdown"}
        if op == "verify":
            return await self._submit(request)
        raise ProtocolError(f"unknown op {op!r}")

    # ----------------------------------------------------------- job intake
    def _resolve_job(self, request: Dict[str, object]) -> Dict[str, object]:
        """Normalize a verify request: resolve the workload to source text
        and fill every default, so the dedupe key hashes semantics, not
        spelling.  Every malformed field raises :class:`ProtocolError`
        (answered as a structured ``error_kind="protocol"`` response) —
        client input must never take the server down."""
        source = request.get("source")
        label = request.get("workload")
        default_bytes = 4
        concrete_input = VerificationRequest().concrete_input
        if label is not None:
            if source is not None:
                raise ProtocolError("give 'workload' or 'source', not both")
            try:
                workload = get_workload(str(label))
            except (KeyError, ValueError) as exc:
                raise ProtocolError(str(exc)) from None
            source = workload.source
            default_bytes = workload.default_input_bytes
            # As `python -m repro <workload> --verify` runs it.
            concrete_input = workload.sample_input
        elif source is None:
            raise ProtocolError("a verify job needs 'workload' or 'source'")
        elif not isinstance(source, str):
            raise ProtocolError("'source' must be MiniC program text")
        try:
            level = parse_opt_level(str(request.get("level", "-OVERIFY")))
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        timeout = _field_float(request, "timeout", 60.0)
        deadline = None
        if request.get("deadline") is not None:
            deadline = _field_float(request, "deadline", 0.0)
            if deadline <= 0.0:
                raise ProtocolError(
                    f"'deadline' must be > 0, got {deadline:g}")
            # Cooperative leg: the engine's own wall-clock budget is
            # capped to the deadline, so a healthy job terminates itself
            # (termination_reason="timeout") well before the backstop.
            timeout = min(timeout, deadline)
        verification = VerificationRequest(
            symbolic_input_bytes=_field_int(request, "input_bytes",
                                            default_bytes, minimum=1,
                                            maximum=MAX_INPUT_BYTES),
            concrete_input=concrete_input,
            timeout_seconds=timeout,
            max_instructions=_field_int(request, "max_instructions",
                                        5_000_000, minimum=1),
            entry=str(request.get("entry", "main")),
        )
        return {"source": source, "label": label or "(inline source)",
                "level": level, "request": verification,
                "deadline": deadline}

    def _job_key(self, job: Dict[str, object]) -> str:
        request = job["request"]
        identity = json.dumps({
            "source": job["source"],
            "level": str(job["level"]),
            "input_bytes": request.symbolic_input_bytes,
            "concrete_input": request.concrete_input.hex(),
            "timeout": request.timeout_seconds,
            "max_instructions": request.max_instructions,
            "entry": request.entry,
            "backend": self.backend.describe(),
        }, sort_keys=True)
        return hashlib.sha256(identity.encode("utf-8")).hexdigest()

    async def _submit(self, request: Dict[str, object]) -> Dict[str, object]:
        if self._draining:
            return {"ok": False, "op": "verify",
                    "error": "server is shutting down",
                    "error_kind": "shutting-down", "retryable": False,
                    "id": request.get("id")}
        job = self._resolve_job(request)
        deadline = job.pop("deadline")
        key = self._job_key(job)
        existing = self._inflight.get(key)
        if existing is not None:
            with self._stats_lock:
                self.stats["jobs_deduped"] += 1
            response = await self._await_job(existing, deadline)
            response["deduped"] = True
            response["id"] = request.get("id")
            return response
        if self._active_jobs >= self.max_pending:
            # Backpressure: a *distinct* job needs a slot (duplicates ride
            # the existing job above).  Reject with a retry hint instead
            # of queueing unboundedly behind a saturated pool.
            with self._stats_lock:
                self.stats["jobs_rejected"] += 1
            return {"ok": False, "op": "verify",
                    "error": f"server at capacity "
                             f"({self._active_jobs} jobs in flight)",
                    "error_kind": "backpressure", "retryable": True,
                    "retry_after": 0.5, "id": request.get("id")}
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._inflight[key] = future
        self._active_jobs += 1
        runner = loop.create_task(self._run_and_publish(key, job, future))
        self._runners.add(runner)
        runner.add_done_callback(self._runners.discard)
        response = await self._await_job(future, deadline)
        response["id"] = request.get("id")
        return response

    async def _run_and_publish(self, key: str, job: Dict[str, object],
                               future: "asyncio.Future") -> None:
        """Run one distinct job on the pool and publish its response to
        every waiter.  Runs as its own task so a waiter abandoning the
        job (deadline, disconnect) never cancels the job itself — the
        result is still memoized (unless the clock cut it) and handed to
        other waiters."""
        try:
            try:
                response = await asyncio.get_running_loop().run_in_executor(
                    self._pool, self._run_job, job)
            except ReproError as exc:
                response = self._error_response(exc)
                response["op"] = "verify"
                with self._stats_lock:
                    self.stats["jobs_failed"] += 1
            except Exception as exc:
                response = {"ok": False, "op": "verify", "error": str(exc)}
                with self._stats_lock:
                    self.stats["jobs_failed"] += 1
            if not future.done():
                future.set_result(response)
        finally:
            self._inflight.pop(key, None)
            self._active_jobs -= 1
            if not future.done():
                future.cancel()

    async def _await_job(self, future: "asyncio.Future",
                         deadline: Optional[float]) -> Dict[str, object]:
        """Wait for a job's published response; with a deadline, stop
        waiting ``DEADLINE_GRACE`` past it and answer
        ``error_kind="deadline"`` (the job keeps running, and is memoized
        unless the clock cuts it — only this waiter gives up)."""
        if deadline is None:
            return dict(await asyncio.shield(future))
        try:
            return dict(await asyncio.wait_for(asyncio.shield(future),
                                               deadline + DEADLINE_GRACE))
        except asyncio.TimeoutError:
            with self._stats_lock:
                self.stats["jobs_deadline_expired"] += 1
            response = self._error_response(DeadlineExceeded(
                f"job exceeded its {deadline:g}s deadline"))
            response["op"] = "verify"
            return response

    # ------------------------------------------------------------ job body
    def _run_job(self, job: Dict[str, object]) -> Dict[str, object]:
        started = time.perf_counter()
        with self._session_lock:
            result = self.session.compile(
                job["source"], options=CompileOptions(level=job["level"]))
        # Called through this module's namespace, so a tracer can wrap it.
        memo_key = verification_fingerprint(
            result.module, job["request"], self.backend.describe())
        outcome = verify_memoized(self.store, self.backend, result.module,
                                  job["request"], memo_key)
        if outcome.provenance != "memo-hit" and self.store.path is not None:
            self._save_store()
        with self._stats_lock:
            self.stats["jobs_completed"] += 1
            provenance_key = outcome.provenance.replace("-", "_") \
                .replace("memo_hit", "memo_hits")
            if provenance_key in self.stats:
                self.stats[provenance_key] += 1
        return {
            "ok": True,
            "op": "verify",
            "label": job["label"],
            "level": str(job["level"]),
            "provenance": outcome.provenance,
            "deduped": False,
            **outcome_to_memo(outcome),
            "compile_seconds": result.compile_seconds,
            "wall_seconds": time.perf_counter() - started,
        }


def serve(socket_path: object, store_path: object = None,
          backend: str = "symex", pool_size: int = 2,
          max_pending: int = 0) -> None:
    """Convenience blocking runner (``python -m repro serve``)."""
    VerificationServer(socket_path, store_path=store_path, backend=backend,
                       pool_size=pool_size, max_pending=max_pending).run()


__all__ = ["MAX_INPUT_BYTES", "MAX_REQUEST_BYTES", "VerificationServer",
           "serve"]
