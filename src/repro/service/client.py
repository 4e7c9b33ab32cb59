"""Blocking client for the verification service.

One :class:`ServiceClient` talks JSON-lines to a
:class:`~repro.service.server.VerificationServer` over its unix-domain
socket.  Each request opens a fresh connection — the protocol is
one-line-in / one-line-out, and a connection per request keeps the
client trivially usable from multiple threads (the scripted smoke test
and the test suite both do).

Failures come back as :class:`ServiceError` carrying the server's
structured fields (``kind``, ``retryable``, ``retry_after`` — see
``docs/robustness.md``).  With ``retries > 0`` the client re-sends
retryable failures itself, backing off exponentially with deterministic
jitter; the default ``retries=0`` keeps every failure loud.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Dict, Optional


#: Seconds :meth:`ServiceClient.wait_until_ready` waits between pings: a
#: failed ping to a socket not yet bound costs microseconds, so a short
#: poll sees a starting server within milliseconds of its bind.
READY_POLL_S = 0.005

#: Seed of the jitter applied to each retry delay: a client's delays are
#: the same in every run, so a test of retrying stays reproducible.
JITTER_SEED = 0


class ServiceError(RuntimeError):
    """The service could not be reached or reported a failure.

    ``kind`` mirrors the server's ``error_kind`` (``"unavailable"`` when
    the failure happened on the wire, before any response);
    ``retryable`` says whether an identical retry can succeed;
    ``retry_after`` is the server's backoff hint in seconds, if it gave
    one.
    """

    def __init__(self, message: str, kind: str = "unavailable",
                 retryable: bool = True,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.retryable = retryable
        self.retry_after = retry_after


class ServiceClient:
    """Talk to a :class:`~repro.service.server.VerificationServer`.

    Parameters
    ----------
    socket_path:
        The server's unix-domain socket.
    timeout:
        Per-request socket timeout in seconds.  Verifications can be
        slow; size this for the workloads being submitted.
    retries:
        Re-send a request up to this many extra times when the failure
        is retryable (connection refused, backpressure, store hiccups).
        0 = fail on the first error.
    backoff:
        Base delay before the first retry; doubles per attempt up to
        ``backoff_cap``, floored by the server's ``retry_after`` hint,
        with jitter seeded by :data:`JITTER_SEED`.
    """

    def __init__(self, socket_path: object, timeout: float = 60.0,
                 retries: int = 0, backoff: float = 0.1,
                 backoff_cap: float = 2.0) -> None:
        self.socket_path = str(socket_path)
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self._rng = random.Random(JITTER_SEED)

    # --------------------------------------------------------------- wire
    def _request_once(self,
                      payload: Dict[str, object]) -> Dict[str, object]:
        """One request/response exchange, no retries."""
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
                sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
                chunks = []
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
                    if chunk.endswith(b"\n"):
                        break
        except OSError as exc:
            raise ServiceError(
                f"verification service at {self.socket_path}: {exc}",
                kind="unavailable", retryable=True) from exc
        raw = b"".join(chunks)
        if not raw:
            raise ServiceError(
                f"verification service at {self.socket_path}: empty reply",
                kind="unavailable", retryable=True)
        try:
            response = json.loads(raw)
        except ValueError as exc:
            raise ServiceError(
                f"verification service: malformed reply {raw!r}",
                kind="protocol", retryable=False) from exc
        if not isinstance(response, dict):
            raise ServiceError(
                f"verification service: non-object reply {response!r}",
                kind="protocol", retryable=False)
        if not response.get("ok"):
            raise ServiceError(
                response.get("error", "verification service failure"),
                kind=str(response.get("error_kind", "failure")),
                retryable=bool(response.get("retryable", False)),
                retry_after=response.get("retry_after"))
        return response

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Send one request object, return the response object.

        Raises :class:`ServiceError` on connection failure, malformed
        responses, or an ``{"ok": false}`` reply — after exhausting
        ``retries`` re-sends of retryable failures.
        """
        attempt = 0
        while True:
            try:
                return self._request_once(payload)
            except ServiceError as exc:
                if attempt >= self.retries or not exc.retryable:
                    raise
                delay = min(self.backoff * (2 ** attempt), self.backoff_cap)
                if exc.retry_after is not None:
                    delay = max(delay, float(exc.retry_after))
            # Jitter in [0.5, 1.5) de-synchronizes competing clients.
            time.sleep(delay * (0.5 + self._rng.random()))
            attempt += 1

    # ---------------------------------------------------------------- ops
    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("ok"))

    def stats(self) -> Dict[str, object]:
        return self.request({"op": "stats"})

    def shutdown(self) -> None:
        self.request({"op": "shutdown"})

    def verify(self, *, workload: Optional[str] = None,
               source: Optional[str] = None, level: str = "-OVERIFY",
               input_bytes: Optional[int] = None,
               timeout: Optional[float] = None,
               max_instructions: Optional[int] = None,
               entry: Optional[str] = None,
               deadline: Optional[float] = None,
               job_id: Optional[str] = None) -> Dict[str, object]:
        """Submit one compile-and-verify job and wait for its result.

        ``deadline`` bounds the job's wall clock end to end: the engine's
        budget is capped to it, and the server answers
        ``error_kind="deadline"`` shortly past it even if the job wedges.
        """
        payload: Dict[str, object] = {"op": "verify", "level": level}
        if workload is not None:
            payload["workload"] = workload
        if source is not None:
            payload["source"] = source
        if input_bytes is not None:
            payload["input_bytes"] = input_bytes
        if timeout is not None:
            payload["timeout"] = timeout
        if max_instructions is not None:
            payload["max_instructions"] = max_instructions
        if entry is not None:
            payload["entry"] = entry
        if deadline is not None:
            payload["deadline"] = deadline
        if job_id is not None:
            payload["id"] = job_id
        return self.request(payload)

    def wait_until_ready(self, deadline: float = 10.0) -> None:
        """Poll ``ping`` every :data:`READY_POLL_S` seconds until the
        server answers (it may still be binding its socket); raise
        :class:`ServiceError` after ``deadline`` seconds."""
        end = time.monotonic() + deadline
        while True:
            try:
                if self.ping():
                    return
            except ServiceError:
                pass
            if time.monotonic() >= end:
                raise ServiceError(
                    f"verification service at {self.socket_path} did not "
                    f"come up within {deadline:.1f}s")
            time.sleep(READY_POLL_S)


__all__ = ["ServiceClient", "ServiceError"]
