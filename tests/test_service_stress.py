"""Service stress: concurrent clients, disconnects, backpressure, drain.

The front door's concurrency promises under load: N clients submitting a
mix of duplicate and distinct jobs all get correct (and deduplicated)
answers; a client vanishing mid-job never wedges the server or the job;
a saturated server rejects with a structured ``backpressure`` error that
the retrying client recovers from; and shutdown drains in-flight jobs so
their clients still get answers.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.service import ServiceClient, ServiceError
from repro.service.server import VerificationServer

#: Input-independent busy loop: one path, enough interpreted instructions
#: that a small ``timeout`` budget — not completion — ends the job.  This
#: makes "a job is running" a condition tests can reliably create.
SLOW_SOURCE = """
int main(unsigned char *input, int len) {
    int i = 0;
    int s = 0;
    while (i < 1000000) {
        s = s + i;
        i = i + 1;
    }
    return s;
}
"""

#: An instruction budget that ends a ``SLOW_SOURCE`` job after about two
#: seconds of work.
SLOW_INSTRUCTIONS = 100_000


class _RunningServer:
    def __init__(self, tmp_path, name, **kwargs):
        self.socket_path = str(tmp_path / f"{name}.sock")
        self.server = VerificationServer(self.socket_path, **kwargs)
        self.thread = threading.Thread(target=self.server.run, daemon=True)

    def __enter__(self):
        self.thread.start()
        self.client = ServiceClient(self.socket_path, timeout=120.0)
        self.client.wait_until_ready()
        return self

    def __exit__(self, *exc_info):
        try:
            self.client.shutdown()
        except ServiceError:
            pass
        self.thread.join(timeout=60)
        assert not self.thread.is_alive(), "server did not shut down"

    def wait_for_active_job(self, deadline=20.0):
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            if self.client.stats()["active_jobs"] >= 1:
                return
            time.sleep(0.02)
        pytest.fail("no job became active in time")


def test_concurrent_clients_duplicate_and_distinct(tmp_path):
    with _RunningServer(tmp_path, "mix", pool_size=2) as running:
        results = {}
        errors = []
        # 4 identical submissions (dedupe/memo fodder) + 4 distinct jobs.
        jobs = [("dup", dict(workload="wc", level="-O0", input_bytes=3))
                for _ in range(4)]
        jobs += [("uniq", dict(workload="uniq", level="-O0", input_bytes=3)),
                 ("wc-o2", dict(workload="wc", level="-O2", input_bytes=3)),
                 ("wc-2b", dict(workload="wc", level="-O0", input_bytes=2)),
                 ("grep", dict(workload="grep", level="-O0", input_bytes=3))]

        def submit(index, tag, kwargs):
            try:
                client = ServiceClient(running.socket_path, timeout=120.0)
                results[index] = (tag, client.verify(**kwargs))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((tag, exc))

        threads = [threading.Thread(target=submit, args=(index, tag, kwargs))
                   for index, (tag, kwargs) in enumerate(jobs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(results) == len(jobs)
        # Every duplicate got the same answer by one of the three legal
        # routes: ran it, rode the in-flight job, or hit the memo.
        dup = [result for tag, result in results.values() if tag == "dup"]
        assert len({result["paths"] for result in dup}) == 1
        assert len({tuple(map(tuple, result["bug_signatures"]))
                    for result in dup}) == 1
        stats = running.client.stats()
        # Deduped submissions ride another job instead of running one:
        # every submission is accounted exactly once between the two.
        assert stats["jobs_completed"] + stats["jobs_deduped"] == len(jobs)
        assert stats["jobs_deduped"] == \
            sum(1 for result in dup if result["deduped"])
        assert stats["jobs_failed"] == 0
        assert stats["active_jobs"] == 0


def test_client_disconnect_mid_job_does_not_wedge(tmp_path):
    with _RunningServer(tmp_path, "gone", pool_size=1) as running:
        # The instruction budget, not the clock, ends this job (about 2 s):
        # an outcome the clock cut would not be memoized.
        payload = {"op": "verify", "source": SLOW_SOURCE, "level": "-O0",
                   "timeout": 60.0, "max_instructions": SLOW_INSTRUCTIONS}
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(running.socket_path)
            sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
            running.wait_for_active_job()
        # The submitting client is gone; the server must stay responsive
        # and the orphaned job must still complete (and be memoized).
        assert running.client.ping() is True
        end = time.monotonic() + 60.0
        while time.monotonic() < end:
            stats = running.client.stats()
            if stats["jobs_completed"] >= 1:
                break
            time.sleep(0.1)
        else:
            pytest.fail("orphaned job never completed")
        # The finished job's memo answers the next client instantly.
        result = running.client.verify(source=SLOW_SOURCE, level="-O0",
                                       timeout=60.0,
                                       max_instructions=SLOW_INSTRUCTIONS)
        assert result["provenance"] == "memo-hit"
        assert result["termination_reason"] == "instructions"


def test_backpressure_rejection_and_client_retry(tmp_path):
    with _RunningServer(tmp_path, "full", pool_size=1,
                        max_pending=1) as running:
        slow_result = {}

        def submit_slow():
            client = ServiceClient(running.socket_path, timeout=120.0)
            slow_result["response"] = client.verify(
                source=SLOW_SOURCE, level="-O0", timeout=3.0)

        slow = threading.Thread(target=submit_slow)
        slow.start()
        try:
            running.wait_for_active_job()
            # The slot is taken: a *distinct* job bounces with a hint...
            impatient = ServiceClient(running.socket_path, timeout=30.0)
            with pytest.raises(ServiceError) as excinfo:
                impatient.verify(workload="wc", level="-O0", input_bytes=2)
            assert excinfo.value.kind == "backpressure"
            assert excinfo.value.retryable is True
            assert excinfo.value.retry_after > 0
            # ...a *duplicate* of the running job rides it for free...
            dup = ServiceClient(running.socket_path, timeout=120.0) \
                .verify(source=SLOW_SOURCE, level="-O0", timeout=3.0)
            assert dup["deduped"] is True
            # ...and a retrying client wins a slot once the job drains.
            patient = ServiceClient(running.socket_path, timeout=120.0,
                                    retries=30, backoff=0.25,
                                    backoff_cap=0.5)
            result = patient.verify(workload="wc", level="-O0",
                                    input_bytes=2)
            assert result["ok"] is True
        finally:
            slow.join(timeout=60)
        assert not slow.is_alive()
        assert slow_result["response"]["ok"] is True
        stats = running.client.stats()
        assert stats["jobs_rejected"] >= 1
        assert stats["jobs_deduped"] >= 1


def test_shutdown_drains_inflight_jobs(tmp_path):
    running = _RunningServer(tmp_path, "drain", pool_size=1)
    with running:
        slow_result = {}

        def submit_slow():
            client = ServiceClient(running.socket_path, timeout=120.0)
            slow_result["response"] = client.verify(
                source=SLOW_SOURCE, level="-O0", timeout=2.0)

        slow = threading.Thread(target=submit_slow)
        slow.start()
        running.wait_for_active_job()
        running.client.shutdown()
        slow.join(timeout=60)
        assert not slow.is_alive(), "in-flight job was not drained"
        # The drained job answered normally — shutdown waited for it.
        assert slow_result["response"]["ok"] is True
    # __exit__'s second shutdown raced the close; that is fine.


def test_submissions_during_drain_are_rejected(tmp_path):
    with _RunningServer(tmp_path, "late", pool_size=1) as running:
        server = running.server
        # Simulate the drain window without tearing the socket down.
        server._draining = True
        try:
            with pytest.raises(ServiceError) as excinfo:
                running.client.verify(workload="wc", level="-O0",
                                      input_bytes=2)
            assert excinfo.value.kind == "shutting-down"
            assert excinfo.value.retryable is False
        finally:
            server._draining = False
        result = running.client.verify(workload="wc", level="-O0",
                                       input_bytes=2)
        assert result["ok"] is True
