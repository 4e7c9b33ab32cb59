"""The verification service: a persistent solver-knowledge store and an
asyncio front door over a local socket.

* :mod:`repro.service.store` — :class:`SolverKnowledgeStore`: exact
  solver group results and per-function verification memos, appended
  to a versioned, checksummed journal keyed by canonical
  constraint-group fingerprints.
* :mod:`repro.service.server` — :class:`VerificationServer`: the
  JSON-line front door that compiles, dedupes, memoizes and verifies
  jobs against store-primed shared solver caches.
* :mod:`repro.service.client` — :class:`ServiceClient`: the blocking
  client.

See ``docs/service.md``.
"""

from .client import ServiceClient, ServiceError
from .server import VerificationServer, serve
from .store import (
    SolverKnowledgeStore, WireError, expr_from_wire, expr_to_wire,
    group_fingerprint, verification_fingerprint,
)

__all__ = [
    "ServiceClient", "ServiceError",
    "VerificationServer", "serve",
    "SolverKnowledgeStore", "WireError",
    "expr_from_wire", "expr_to_wire", "group_fingerprint",
    "verification_fingerprint",
]
