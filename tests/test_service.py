"""Tests for the verification service: the UNSAT index, the
store-backed backend (memo + warm provenance), injectable solver caches,
and the socket front door end to end (dedupe, memo hits, stats, restart
persistence)."""

import gc
import threading
import weakref

import pytest

from conftest import as_partition
from repro.pipelines import CompileOptions, CompilerSession, OptLevel
from repro.service import ServiceClient, ServiceError, VerificationServer
from repro.service.store import SolverKnowledgeStore
from repro.symex import (
    ExprOp, SharedSolverCaches, Solver, SolverConfig, binary, const,
    not_expr, var,
)
from repro.verification import VerificationRequest, make_backend
from repro.workloads import get_workload

# ------------------------------------------------------------ UNSAT index


def _contradiction_with_padding():
    """Two directly contradictory constraints buried in satisfiable
    padding.  The padding shares variable ``in0`` with the contradiction
    so the state's group partition keeps everything in one constraint
    group."""
    a, b, c = var(8, "in0"), var(8, "in1"), var(8, "in2")
    core = [binary(ExprOp.EQ, a, const(8, 1)),
            binary(ExprOp.EQ, a, const(8, 2))]
    padding = [binary(ExprOp.ULT, binary(ExprOp.ADD, a, b), const(8, 200)),
               not_expr(binary(ExprOp.EQ, binary(ExprOp.XOR, a, c),
                               const(8, 9)))]
    return core, padding


def test_unsat_group_is_indexed_as_solved():
    """An UNSAT group enters the UNSAT index exactly as it was solved, so
    a superset of it that was never queried before is answered by
    containment."""
    core, padding = _contradiction_with_padding()
    group = padding[:1] + core + padding[1:]
    solver = Solver()
    assert not solver.check_partition(*as_partition(group)).satisfiable
    assert solver.stats.cores_minimized == 0
    unsat_index = solver._shared.stripes[0].unsat_index
    assert len(unsat_index) == 1 and unsat_index.contains(group)
    fresh = [binary(ExprOp.EQ, var(8, "in1"), const(8, 77))] + group
    hits_before = solver.stats.ubtree_hits
    assert not solver.check_partition(*as_partition(fresh)).satisfiable
    assert solver.stats.ubtree_hits == hits_before + 1


def test_unsat_index_hit_costs_no_search():
    """A containment hit answers without searching: the superset query
    leaves the search counters where the first solve left them, while a
    solver without the index has to search for it."""
    core, padding = _contradiction_with_padding()
    group = padding[:1] + core + padding[1:]
    fresh = [binary(ExprOp.EQ, var(8, "in1"), const(8, 77))] + group
    solver = Solver()
    assert not solver.check_partition(*as_partition(group)).satisfiable
    searched = (solver.stats.csp_searches, solver.stats.assignments_tried)
    assert not solver.check_partition(*as_partition(fresh)).satisfiable
    assert (solver.stats.csp_searches,
            solver.stats.assignments_tried) == searched
    uncached = Solver(config=SolverConfig(cache=False))
    assert not uncached.check_partition(*as_partition(fresh)).satisfiable
    assert uncached.stats.csp_searches > 0


def test_unsat_index_verdicts_match_uncached():
    """The index may only save work, never change a verdict: a long-lived
    indexing solver agrees with a cache-free one on random groups over
    few variables, which re-ask subsets and supersets of each other."""
    import random

    rng = random.Random(7)
    names = ["in0", "in1", "in2"]
    comparisons = [ExprOp.EQ, ExprOp.NE, ExprOp.ULT, ExprOp.ULE]
    plain = Solver(config=SolverConfig(cache=False))
    indexed = Solver()
    for _ in range(150):
        group = [binary(rng.choice(comparisons),
                        var(8, rng.choice(names)),
                        const(8, rng.randrange(256)))
                 for _ in range(rng.randrange(2, 6))]
        assert indexed.check_partition(*as_partition(group)).satisfiable == \
            plain.check_partition(*as_partition(group)).satisfiable
    assert indexed.stats.ubtree_hits > 0
    assert indexed.stats.cores_minimized == 0


# ------------------------------------------------- store-backed backend


@pytest.fixture(scope="module")
def wc_build():
    workload = get_workload("wc")
    session = CompilerSession()
    module = session.compile(
        workload.source,
        options=CompileOptions(level=OptLevel.OVERIFY)).module
    return workload, module


def test_backend_store_memo_round_trip(tmp_path, wc_build):
    workload, module = wc_build
    store_path = tmp_path / "knowledge.jsonl"
    request = VerificationRequest(symbolic_input_bytes=4)

    cold = make_backend("symex", store=str(store_path)) \
        .verify(module, request)
    assert cold.provenance == "cold"
    memo = make_backend("symex", store=str(store_path)) \
        .verify(module, request)
    assert memo.provenance == "memo-hit"
    assert memo.seconds == 0.0
    assert memo.paths == cold.paths
    assert memo.errors == cold.errors
    assert memo.instructions == cold.instructions
    assert memo.bug_signatures == cold.bug_signatures
    # The memo reconstructs the full report, test inputs included.
    assert sorted(p.test_input for p in memo.detail.paths) == \
        sorted(p.test_input for p in cold.detail.paths)


def test_backend_memo_key_tracks_the_request(tmp_path, wc_build):
    workload, module = wc_build
    store_path = tmp_path / "knowledge.jsonl"
    make_backend("symex", store=str(store_path)).verify(
        module, VerificationRequest(symbolic_input_bytes=4))
    # A different request is a different verification: no memo hit, but
    # the primed solver knowledge still applies where groups overlap.
    changed = make_backend("symex", store=str(store_path)).verify(
        module, VerificationRequest(symbolic_input_bytes=4,
                                    max_instructions=4_999_999))
    assert changed.provenance in ("cold", "warm-store")
    assert changed.provenance != "memo-hit"


def test_backend_memo_key_tracks_the_config(tmp_path, wc_build):
    workload, module = wc_build
    store_path = tmp_path / "knowledge.jsonl"
    request = VerificationRequest(symbolic_input_bytes=4)
    make_backend("symex", store=str(store_path)).verify(module, request)
    other = make_backend("symex<searcher=bfs>", store=str(store_path)) \
        .verify(module, request)
    assert other.provenance != "memo-hit"


def test_backend_warm_store_provenance(tmp_path, wc_build):
    """Same constraints, different verification (the memo misses because
    the instruction budget differs): primed groups answer queries, and
    the run reports warm-store."""
    workload, module = wc_build
    store_path = tmp_path / "knowledge.jsonl"
    make_backend("symex", store=str(store_path)).verify(
        module, VerificationRequest(symbolic_input_bytes=4))
    warm = make_backend("symex", store=str(store_path)).verify(
        module, VerificationRequest(symbolic_input_bytes=4,
                                    max_instructions=4_999_999))
    assert warm.provenance == "warm-store"
    assert warm.solver_stats["store_hits"] > 0


def test_backend_tolerates_corrupt_store(tmp_path, wc_build):
    workload, module = wc_build
    store_path = tmp_path / "knowledge.jsonl"
    store_path.write_text("garbage that is definitely not a store\n")
    request = VerificationRequest(symbolic_input_bytes=4)
    outcome = make_backend("symex", store=str(store_path)) \
        .verify(module, request)
    assert outcome.provenance == "cold"
    # The run rewrote the store; the next one memo-hits.
    again = make_backend("symex", store=str(store_path)) \
        .verify(module, request)
    assert again.provenance == "memo-hit"


def test_backend_injected_caches_are_reused(wc_build):
    """Two runs sharing one injected cache set: the second run's group
    queries hit the first run's entries (ordinary cache hits — injected
    knowledge is not store-primed, so provenance stays cold)."""
    workload, module = wc_build
    caches = SharedSolverCaches(num_stripes=1)
    request = VerificationRequest(symbolic_input_bytes=4)
    backend = make_backend("symex", caches=caches)
    first = backend.verify(module, request)
    second = backend.verify(module, request)
    assert second.provenance == "cold"
    assert second.paths == first.paths
    assert second.solver_stats["cache_hits"] > \
        first.solver_stats["cache_hits"] - 1
    # The shared set saved real solving: run 2 searched less than run 1.
    assert second.solver_stats["csp_searches"] <= \
        first.solver_stats["csp_searches"]


def test_interp_backend_ignores_service_defaults(wc_build):
    """make_backend drops defaults a backend does not accept: handing the
    service's caches/store defaults to interp must not error."""
    workload, module = wc_build
    backend = make_backend("interp", caches=SharedSolverCaches(),
                           store="/nonexistent/path.jsonl")
    outcome = backend.verify(
        module, VerificationRequest(concrete_input=b"a b\n"))
    assert outcome.backend == "interp"


def test_store_spec_round_trips_through_describe(tmp_path, wc_build):
    workload, module = wc_build
    store_path = str(tmp_path / "knowledge.jsonl")
    backend = make_backend("symex", store=store_path)
    described = backend.describe()
    assert f"store={store_path}" in described
    rebuilt = make_backend(described)
    assert rebuilt.describe() == described
    outcome = rebuilt.verify(module,
                             VerificationRequest(symbolic_input_bytes=4))
    assert outcome.provenance == "cold"


# --------------------------------------------------------- socket front door


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
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "server did not shut down"


def test_server_end_to_end(tmp_path):
    store_path = tmp_path / "knowledge.jsonl"
    with _RunningServer(tmp_path, "e2e", store_path=store_path,
                        pool_size=2) as running:
        client = running.client
        assert client.ping() is True

        first = client.verify(workload="wc", level="-OVERIFY", job_id="a")
        assert first["ok"] and first["op"] == "verify"
        assert first["id"] == "a"
        assert first["provenance"] == "cold"
        assert first["deduped"] is False
        assert first["paths"] > 0

        second = client.verify(workload="wc", level="-OVERIFY", job_id="b")
        assert second["provenance"] == "memo-hit"
        assert second["paths"] == first["paths"]
        assert second["bug_signatures"] == first["bug_signatures"]
        assert second["verify_seconds"] == 0.0

        # A different level is a different job.
        other = client.verify(workload="wc", level="-O2")
        assert other["provenance"] != "memo-hit"

        stats = client.stats()
        assert stats["jobs_completed"] == 3
        assert stats["memo_hits"] == 1
        assert stats["store_records"] > 0
    assert store_path.exists()


def test_server_persists_across_restart(tmp_path):
    store_path = tmp_path / "knowledge.jsonl"
    with _RunningServer(tmp_path, "first", store_path=store_path) as running:
        cold = running.client.verify(workload="uniq", level="-OVERIFY")
        assert cold["provenance"] == "cold"
    # A brand-new server over the same store answers from the memo.
    with _RunningServer(tmp_path, "second", store_path=store_path) as running:
        warm = running.client.verify(workload="uniq", level="-OVERIFY")
        assert warm["provenance"] == "memo-hit"
        assert warm["paths"] == cold["paths"]
        assert running.client.stats()["primed_entries"] > 0


def test_server_dedupes_concurrent_identical_jobs(tmp_path):
    with _RunningServer(tmp_path, "dedupe", pool_size=2) as running:
        results = []
        errors = []

        def submit():
            try:
                client = ServiceClient(running.socket_path, timeout=120.0)
                results.append(client.verify(workload="wc", level="-O0",
                                             input_bytes=4))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(results) == 4
        paths = {result["paths"] for result in results}
        assert len(paths) == 1  # everyone got the same answer
        stats = running.client.stats()
        # At least one submission rode an in-flight duplicate (the rest
        # may have memo-hit if they arrived after completion).
        deduped = [r for r in results if r["deduped"]]
        memoized = [r for r in results if r["provenance"] == "memo-hit"]
        assert stats["jobs_deduped"] == len(deduped)
        assert len(deduped) + len(memoized) >= 1
        assert any(not r["deduped"] and r["provenance"] != "memo-hit"
                   for r in results)  # exactly one actually ran... at most
    # memory-only server: nothing was written anywhere
    assert list(tmp_path.glob("*.jsonl")) == []


def test_server_inline_source_and_errors(tmp_path):
    with _RunningServer(tmp_path, "errors") as running:
        client = running.client
        source = """
        int main(unsigned char *input, int len) {
            if (len < 1) { return 0; }
            int c = input[0];
            return 100 / (c - 42);
        }
        """
        result = client.verify(source=source, level="-O0", input_bytes=1)
        assert result["errors"] > 0
        assert any("division" in part for signature
                   in result["bug_signatures"] for part in signature)

        with pytest.raises(ServiceError, match="workload"):
            client.verify(level="-O0")
        with pytest.raises(ServiceError, match="not both"):
            client.request({"op": "verify", "workload": "wc",
                            "source": "int main(void){return 0;}"})
        with pytest.raises(ServiceError, match="unknown op"):
            client.request({"op": "frobnicate"})
        with pytest.raises(ServiceError):
            client.verify(workload="no-such-workload")
        # Failures are reported, never fatal: the server still answers.
        assert client.ping() is True
        assert client.stats()["jobs_failed"] >= 3


def test_server_session_keeps_no_job_module(tmp_path, monkeypatch):
    """The service holds one session for its whole life; a finished job's
    module must not stay reachable through it."""
    running = _RunningServer(tmp_path, "retain", pool_size=1)
    session = running.server.session
    compile_job = session.compile
    modules = []

    def compile_and_track(*args, **kwargs):
        result = compile_job(*args, **kwargs)
        modules.append(weakref.ref(result.module))
        return result

    monkeypatch.setattr(session, "compile", compile_and_track)
    with running:
        for level in ("-O0", "-O2", "-OVERIFY", "-OVERIFY"):
            reply = running.client.verify(workload="wc", level=level,
                                          input_bytes=2)
            assert reply["ok"]
        gc.collect()
        assert len(modules) == 4
        assert [ref() for ref in modules] == [None] * 4
        assert session.stats.compiles == 4


def test_client_error_when_server_absent(tmp_path):
    client = ServiceClient(tmp_path / "nobody-home.sock", timeout=1.0)
    with pytest.raises(ServiceError):
        client.ping()
