"""The service-mix workload: ``python -m repro serve`` and two clients.

The server runs with a knowledge-store file that a short warm-up seeds
first (``jobs.STORE_SEED_PROGRAMS`` at -O1, which no client asks for), so
the server's load and prime do work at start-up.  Two closed-loop clients,
CI callers that each wait for their reply, then send their seeded request
sequences (``jobs.service_mix``) one block at a time; between blocks and
before duplicate steps, while neither client waits for a reply, the run
samples the CPU's speed.  The traced run starts the server through
``serve_traced.py`` instead, which wraps the server's layers before
serving.
"""

from __future__ import annotations

import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.pipelines import CompilerSession, OptLevel
from repro.service.client import ServiceClient, ServiceError
from repro.service.store import SolverKnowledgeStore
from repro.symex.solver import SharedSolverCaches
from repro.verification import VerificationRequest, make_backend
from repro.workloads import get_workload

import local
from jobs import (
    BLOCK, STORE_SEED_PROGRAMS, Request, edited_source, guard_byte,
)
from oracle import Oracle

#: Symbolic input bytes of every service request.
INPUT_BYTES = 1
#: Seconds of ``--seconds`` per block of requests each client sends: a
#: run sends whole blocks, as many as ``seconds / SECONDS_PER_BLOCK``
#: rounds to, so every run sends the same mix whatever the CPU speed.
SECONDS_PER_BLOCK = 1.0
#: Seconds the server may take to answer its first ping.
START_TIMEOUT_S = 60.0
#: Seconds the server may take to drain and save on shutdown.
STOP_TIMEOUT_S = 30.0


class Server:
    """One verification server process and its files."""

    def __init__(self, root: str, out_dir: str, tag: str,
                 traced: bool) -> None:
        # A relative socket path keeps it under the AF_UNIX length limit
        # however deep the checkout is.
        self.socket = os.path.relpath(os.path.join(out_dir, f"{tag}.sock"),
                                      root)
        self.store = os.path.join(out_dir, f"{tag}-store.jsonl")
        self.spans_file = os.path.join(out_dir, f"{tag}-spans.pickle")
        self.log = os.path.join(out_dir, f"{tag}-server.log")
        self.root = root
        self.traced = traced
        self.process: Optional[subprocess.Popen] = None
        self.peak_kib = 0
        for path in (self.socket, self.store, self.spans_file):
            if os.path.exists(path):
                os.unlink(path)

    def seed_store(self, limit: float) -> None:
        """Verify the warm-up programs into one set of solver caches and
        save them as the store the server will load.  Runs in a forked
        child.  This builds the benchmark's fixture, not the service's
        work, so its time and memory are left out of the metrics."""
        store_path = self.store

        def warm_up():
            caches = SharedSolverCaches()
            session = CompilerSession()
            for name in STORE_SEED_PROGRAMS:
                result = session.compile(get_workload(name).source,
                                         level=OptLevel.O1)
                make_backend("symex", caches=caches).verify(
                    result.module, VerificationRequest(
                        symbolic_input_bytes=INPUT_BYTES,
                        timeout_seconds=limit))
            store = SolverKnowledgeStore(store_path)
            store.absorb(caches)
            store.save()
            yield {"records": len(store)}

        records, _, _, _ = local.run_forked(warm_up, 1, START_TIMEOUT_S)
        if not records:
            raise RuntimeError("store warm-up did not finish")

    def start(self) -> None:
        """Start the server and wait for its first ``ping``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        if self.traced:
            command = [sys.executable,
                       os.path.join(self.root, "perfbench", "serve_traced.py"),
                       self.socket, "--store", self.store,
                       "--spans", self.spans_file]
        else:
            command = [sys.executable, "-m", "repro", "serve", self.socket,
                       "--store", self.store]
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT)
        try:
            ServiceClient(self.socket, timeout=START_TIMEOUT_S) \
                .wait_until_ready(START_TIMEOUT_S)
        except ServiceError:
            self.process.kill()
            self.process.wait()
            raise

    def stop(self) -> Tuple[Dict[str, object], List[tuple]]:
        """Read the server's stats and peak RSS, shut it down and wait
        for it.  Returns the stats and (traced) the server's spans."""
        stats: Dict[str, object] = {}
        spans: List[tuple] = []
        if self.process is None:
            return stats, spans
        try:
            client = ServiceClient(self.socket, timeout=STOP_TIMEOUT_S)
            stats = client.stats()
            self.peak_kib = _peak_kib(self.process.pid)
            client.shutdown()
            self.process.wait(timeout=STOP_TIMEOUT_S)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
        if self.traced and os.path.exists(self.spans_file):
            with open(self.spans_file, "rb") as handle:
                spans = pickle.load(handle)
        if os.path.exists(self.store):
            stats["store_bytes"] = os.path.getsize(self.store)
        for path in (self.store, self.spans_file, self.log):
            if os.path.exists(path):
                os.unlink(path)
        return stats, spans


def _peak_kib(pid: int) -> int:
    """A live process's peak resident set size (VmHWM), in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def blocks_for(seconds: float) -> int:
    """Blocks of requests each client sends in a run of ``seconds``."""
    return max(1, round(seconds / SECONDS_PER_BLOCK))


def _client_loop(requests: List[Request], client: ServiceClient,
                 limit: float, step: threading.Barrier,
                 block: threading.Barrier, results: List[dict]) -> None:
    try:
        for index, request in enumerate(requests):
            if request.kind == "dup":
                step.wait()
            source = edited_source(get_workload(request.program).source,
                                   request.edit)
            record = {"job": request.ident, "kind": request.kind,
                      "program": request.program,
                      "level": str(request.level), "edit": request.edit,
                      "answer_key": request.answer_key,
                      "bytes": INPUT_BYTES, "limit_s": limit,
                      "cause": "", "detail": "", "response": None}
            start = record["started"] = time.perf_counter()
            try:
                record["response"] = client.verify(
                    source=source, level=str(request.level),
                    input_bytes=INPUT_BYTES, timeout=limit,
                    job_id=request.ident)
            except ServiceError as exc:
                timed_out = isinstance(exc.__cause__, socket.timeout)
                record["cause"] = "limit" if timed_out else "engine"
                record["detail"] = f"{exc.kind}: {exc}"
            record["latency_s"] = time.perf_counter() - start
            results.append(record)
            if (index + 1) % BLOCK == 0:
                block.wait()
    except threading.BrokenBarrierError:
        pass
    finally:
        # The other client may be waiting at a duplicate step or at the
        # end of a block.
        step.abort()
        block.abort()


def run_clients(server: Server, plans: List[List[Request]], limit: float,
                between: Callable[[], None]) -> Tuple[List[dict], float]:
    """Drive the two closed-loop clients through their sequences, calling
    ``between`` before the first block, after each and before each
    duplicate step: whenever both clients wait for each other, so the
    server has answered every request (its time is left out of the wall
    time).  Returns the records (in completion order) and the wall
    time."""
    results: List[dict] = []
    paused = 0.0

    def pause() -> None:
        nonlocal paused
        mark = time.perf_counter()
        between()
        paused += time.perf_counter() - mark

    step = threading.Barrier(len(plans), action=pause)
    block = threading.Barrier(len(plans), action=pause)
    start = time.perf_counter()
    pause()
    threads = [threading.Thread(
        target=_client_loop,
        args=(plan, ServiceClient(server.socket,
                                  timeout=limit + local.GRACE_S),
              limit, step, block, results),
        name=f"client-{index}") for index, plan in enumerate(plans)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - start - paused


_ANSWER_FIELDS = ("paths", "errors", "timed_out", "termination_reason",
                  "bug_signatures")


def check_responses(records: List[dict], oracle: Oracle) -> None:
    """Classify every answered request in place: each must match the
    oracle, and a memo hit or deduped answer must equal the answer that
    was computed for its job."""
    computed: Dict[Tuple[str, str, str], dict] = {}
    for record in records:
        response = record["response"]
        if response is not None and response["provenance"] != "memo-hit" \
                and not response.get("deduped"):
            computed.setdefault(record["answer_key"], response)
    for record in records:
        response = record["response"]
        if response is None:
            continue
        if response["engine_errors"]:
            record["cause"] = "engine"
            record["detail"] = f"{response['engine_errors']} engine errors"
            continue
        reported = oracle.classes_of(response["bug_signatures"])
        expected = oracle.expected(record["program"], INPUT_BYTES,
                                   guard=guard_byte(record["edit"]))
        problems = []
        if response["termination_reason"]:
            if not reported <= expected:
                problems.append(f"truncated verdict reports "
                                f"{sorted(reported - expected)}")
        elif reported != expected:
            problems.append(f"classes {sorted(reported)} != expected "
                            f"{sorted(expected)}")
        reference = computed.get(record["answer_key"])
        if reference is not None and reference is not response:
            differing = [name for name in _ANSWER_FIELDS
                         if response[name] != reference[name]]
            if differing:
                problems.append(f"{response['provenance']} answer differs "
                                f"from the computed one in {differing}")
        if problems:
            record["cause"], record["detail"] = "wrong", "; ".join(problems)
        elif response["termination_reason"]:
            record["cause"] = "budget"
            record["detail"] = f"{response['termination_reason']} budget"
        elif record["latency_s"] > record["limit_s"]:
            record["cause"] = "limit"
            record["detail"] = "answered after the hard limit"
