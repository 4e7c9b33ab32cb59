#!/usr/bin/env python3
"""Reduced chaos matrix: one injected fault per registered site.

A fast CI leg (see ``scripts/check.sh``) that drives every fault site in
``repro.faults``' registry through its host layer once and asserts the
layer's degradation contract (``docs/robustness.md``): contained
engine-error paths, an intact store file, a structured service error — never a hang, never an unhandled exception.
The full matrix lives in ``tests/test_fault_injection.py``; this script
is the smoke-sized cut of it.

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.faults import INJECTOR, StoreError, injected  # noqa: E402
from repro.pipelines import (  # noqa: E402
    CompileOptions, OptLevel, compile_source,
)
from repro.service import (  # noqa: E402
    ServiceClient, ServiceError, SolverKnowledgeStore, VerificationServer,
)
from repro.symex import StateStatus, SymexLimits, explore  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

LIMITS = SymexLimits(timeout_seconds=120.0)
INPUT_BYTES = 3


def _wc_module():
    return compile_source(get_workload("wc").source,
                          CompileOptions(level=OptLevel.O1)).module


def check_solver_check(module) -> str:
    with injected("solver.check:every=4"):
        report = explore(module, INPUT_BYTES, limits=LIMITS)
    assert report.stats.engine_errors > 0, "no path was abandoned"
    assert any("solver.check" in line for line in report.diagnostics)
    errored = sum(1 for record in report.paths
                  if record.status is StateStatus.ENGINE_ERROR)
    assert errored == report.stats.engine_errors
    return f"{errored} paths contained, rest of the frontier explored"


def check_engine_step(module) -> str:
    with injected("engine.step:every=2"):
        report = explore(module, INPUT_BYTES, limits=LIMITS)
    assert report.stats.engine_errors > 0, "no path was abandoned"
    assert any("engine.step" in line for line in report.diagnostics)
    return (f"{report.stats.engine_errors} paths contained, "
            f"{report.stats.total_paths} still explored")


def check_store_write(tmp: Path) -> str:
    path = tmp / "knowledge.jsonl"
    store = SolverKnowledgeStore(path)
    store.memo_record("k" * 64, {"paths": 1})
    store.save()
    before = path.read_bytes()
    store.memo_record("m" * 64, {"paths": 2})
    with injected("store.write:once"):
        try:
            store.save()
        except StoreError as exc:
            assert exc.retryable and exc.site == "store.write"
        else:
            raise AssertionError("torn write did not surface")
        assert path.read_bytes() == before, "atomicity violated"
        assert not list(tmp.glob("*.tmp")), "temp-file debris left behind"
        store.save()
    assert SolverKnowledgeStore(path).load() is True
    return "previous file byte-identical through the torn write; retry won"


def check_store_load(tmp: Path) -> str:
    path = tmp / "knowledge2.jsonl"
    store = SolverKnowledgeStore(path)
    store.memo_record("k" * 64, {"paths": 1})
    store.save()
    reader = SolverKnowledgeStore(path)
    with injected("store.load:once"):
        assert reader.load() is False, "load fault was swallowed"
        assert reader.load_error.startswith("fault")
        assert reader.load() is True, "store did not recover"
    return "read fault degraded to a cold start, file untouched"


def check_server_handle(tmp: Path) -> str:
    socket_path = tmp / "chaos.sock"
    server = VerificationServer(socket_path, pool_size=1)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    client = ServiceClient(socket_path, timeout=30.0)
    try:
        client.wait_until_ready()
        with injected("server.handle:once"):
            try:
                client.ping()
            except ServiceError as exc:
                assert exc.kind == "engine", exc.kind
            else:
                raise AssertionError("handler fault was swallowed")
            assert client.ping() is True, "server did not stay up"
    finally:
        try:
            client.shutdown()
        except ServiceError:
            pass
        thread.join(timeout=30)
    assert not thread.is_alive(), "server did not shut down"
    return "one structured error response, then back to serving"


def main() -> int:
    import tempfile

    import repro.service.server  # noqa: F401 - registers server.handle

    module = _wc_module()
    failures = 0
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        checks = [
            ("solver.check", lambda: check_solver_check(module)),
            ("engine.step", lambda: check_engine_step(module)),
            ("store.write", lambda: check_store_write(tmp)),
            ("store.load", lambda: check_store_load(tmp)),
            ("server.handle", lambda: check_server_handle(tmp)),
        ]
        covered = {name for name, _ in checks}
        missing = set(INJECTOR.registered()) - covered
        assert not missing, \
            f"fault sites with no chaos-smoke check: {sorted(missing)}"

        for name, check in checks:
            start = time.monotonic()
            try:
                detail = check()
            except Exception:
                failures += 1
                print(f"FAIL {name}")
                traceback.print_exc()
            else:
                seconds = time.monotonic() - start
                print(f"ok   {name:<14} ({seconds:5.1f}s)  {detail}")
            finally:
                INJECTOR.clear()

    if failures:
        print(f"chaos smoke: {failures} of {len(checks)} sites FAILED")
        return 1
    print(f"chaos smoke: all {len(checks)} fault sites degrade as "
          f"contracted")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
