"""Tests for the verification service: the UNSAT index, the memo path
the CLI and the server share (memo + warm provenance, the one memo
encoding, memos crossing between the CLI and the server), injectable
solver caches, and the socket front door end to end (dedupe, memo hits,
stats, restart persistence)."""

import contextlib
import gc
import io
import json
import re
import threading
import weakref

import pytest

from conftest import as_partition
from repro.pipelines import CompileOptions, CompilerSession, OptLevel
from repro.service import ServiceClient, ServiceError, VerificationServer
from repro.service import store as store_module
from repro.service.server import MAX_INPUT_BYTES, MAX_REQUEST_BYTES
from repro.service.store import (
    SolverKnowledgeStore, memo_to_outcome, outcome_to_memo,
    verification_fingerprint, verify_memoized,
)
from repro.symex import (
    ExprOp, SharedSolverCaches, Solver, SolverConfig, binary, const,
    not_expr, var,
)
from repro.symex.executor import SymbolicExecutor
from repro.verification import (
    VerificationOutcome, VerificationRequest, make_backend,
)
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
    unsat_index = solver._shared.unsat_index
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


# ------------------------------------------------------ shared memo path


@pytest.fixture(scope="module")
def wc_build():
    workload = get_workload("wc")
    session = CompilerSession()
    module = session.compile(
        workload.source,
        options=CompileOptions(level=OptLevel.OVERIFY)).module
    return workload, module


def _cli_run(*argv):
    from repro.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _cli_verify(*argv):
    """One ``python -m repro ... --verify`` run: its ``verify`` line split
    into fields, plus its bug signatures."""
    out = _cli_run(*argv, "--verify")
    line = next(line for line in out.splitlines()
                if line.startswith("verify   :"))
    match = re.search(r": (\d+) paths, (\d+) errors, (\d+) instructions "
                      r"in ([0-9.]+)s(.*?)(?: \[([a-z-]+)\])?$", line)
    assert match, line
    paths, errors, instructions, seconds, budget, provenance = \
        match.groups()
    bugs = sorted(line.split(": ", 1)[1].split(", ")
                  for line in out.splitlines()
                  if line.startswith("  bug    :"))
    return {"provenance": provenance, "paths": int(paths),
            "errors": int(errors), "instructions": int(instructions),
            "seconds": float(seconds), "budget": budget.strip(),
            "bug_signatures": bugs}


def _cli_store_verify(store_path):
    """``python -m repro buggy_div --verify --store`` at 4 bytes."""
    return _cli_verify("buggy_div", "--input-bytes", "4",
                       "--store", str(store_path))


def _verify_through_store(store_path, spec, module, request):
    """What ``python -m repro --verify --store`` does, on a prebuilt
    module: load the store, answer from its memo or verify into the
    store's table and record, save."""
    store = SolverKnowledgeStore(store_path)
    store.load()
    backend = make_backend(spec, caches=store.caches)
    key = verification_fingerprint(module, request, backend.describe())
    outcome = verify_memoized(store, backend, module, request, key)
    store.save()
    return outcome


def test_cli_store_memo_round_trip(tmp_path):
    store_path = tmp_path / "knowledge.jsonl"
    cold = _cli_store_verify(store_path)
    assert cold["provenance"] == "cold"
    memo = _cli_store_verify(store_path)
    assert memo["provenance"] == "memo-hit"
    assert memo["seconds"] == 0.0
    assert cold["bug_signatures"]
    for field in ("paths", "errors", "instructions", "budget",
                  "bug_signatures"):
        assert memo[field] == cold[field]


def test_cli_memo_hit_decodes_no_group_record(tmp_path, store_decodes):
    """A memo hit needs only the memo: the store's table is primed by the
    first run that misses it, so the hit decodes no group record."""
    store_path = tmp_path / "knowledge.jsonl"
    assert _cli_store_verify(store_path)["provenance"] == "cold"
    store_decodes.clear()
    assert _cli_store_verify(store_path)["provenance"] == "memo-hit"
    assert store_decodes == []
    # The store does hold group records: a run that misses decodes them.
    missed = _cli_verify("buggy_div", "--input-bytes", "3",
                         "--store", str(store_path))
    assert missed["provenance"] != "memo-hit"
    assert store_decodes


@pytest.mark.parametrize("spec, change", [
    ("symex", {"max_instructions": 4_999_999}),
    # The interpreter runs on the concrete input.
    ("interp", {"concrete_input": b"one two three\n"}),
], ids=["symex-budget", "interp-input"])
def test_memo_key_tracks_the_request(tmp_path, wc_build, spec, change):
    workload, module = wc_build
    store_path = tmp_path / "knowledge.jsonl"
    _verify_through_store(store_path, spec, module,
                          VerificationRequest(symbolic_input_bytes=4))
    # A different request is a different verification: no memo hit, but
    # the primed solver knowledge still applies where groups overlap.
    changed = _verify_through_store(
        store_path, spec, module,
        VerificationRequest(symbolic_input_bytes=4, **change))
    assert changed.provenance in ("cold", "warm-store")


def test_memo_key_tracks_the_config(tmp_path, wc_build):
    workload, module = wc_build
    store_path = tmp_path / "knowledge.jsonl"
    request = VerificationRequest(symbolic_input_bytes=4)
    _verify_through_store(store_path, "symex", module, request)
    other = _verify_through_store(store_path, "symex<searcher=bfs>",
                                  module, request)
    assert other.provenance != "memo-hit"
    again = _verify_through_store(store_path, "symex<searcher=bfs>",
                                  module, request)
    assert again.provenance == "memo-hit"
    assert again.backend == "symex<searcher=bfs>"


def test_warm_store_provenance(tmp_path, wc_build):
    """Same constraints, different verification (the memo misses because
    the instruction budget differs): primed groups answer queries, and
    the run reports warm-store."""
    workload, module = wc_build
    store_path = tmp_path / "knowledge.jsonl"
    _verify_through_store(store_path, "symex", module,
                          VerificationRequest(symbolic_input_bytes=4))
    warm = _verify_through_store(
        store_path, "symex", module,
        VerificationRequest(symbolic_input_bytes=4,
                            max_instructions=4_999_999))
    assert warm.provenance == "warm-store"
    assert warm.solver_stats["store_hits"] > 0


def test_cli_tolerates_corrupt_store(tmp_path):
    store_path = tmp_path / "knowledge.jsonl"
    store_path.write_text("garbage that is definitely not a store\n")
    assert _cli_store_verify(store_path)["provenance"] == "cold"
    # The run rewrote the store; the next one memo-hits.
    assert _cli_store_verify(store_path)["provenance"] == "memo-hit"


def test_memo_payload_is_the_reply_encoding(tmp_path, wc_build):
    """A memo records exactly the outcome fields of a ``verify`` reply —
    no engine report — and decodes to an outcome without ``detail``."""
    workload, module = wc_build
    request = VerificationRequest(symbolic_input_bytes=4)
    outcome = make_backend("symex").verify(module, request)
    payload = outcome_to_memo(outcome)
    assert set(payload) == {
        "backend", "paths", "errors", "instructions", "timed_out",
        "engine_errors", "termination_reason", "bug_signatures",
        "verify_seconds", "solver"}
    decoded = memo_to_outcome(json.loads(json.dumps(payload)), "symex")
    assert decoded.detail is None
    assert decoded.provenance == "memo-hit" and decoded.seconds == 0.0
    fields = ("paths", "errors", "instructions", "timed_out",
              "engine_errors", "termination_reason", "bug_signatures",
              "solver_stats")
    assert [getattr(decoded, name) for name in fields] == \
        [getattr(outcome, name) for name in fields]


def test_undecodable_memo_is_a_miss_and_is_overwritten(tmp_path, wc_build):
    """A memo this build cannot decode (here one in the layout that also
    carried the engine report) is re-verified, and the fresh outcome
    replaces it."""
    workload, module = wc_build
    store_path = tmp_path / "knowledge.jsonl"
    request = VerificationRequest(symbolic_input_bytes=4)
    key = verification_fingerprint(module, request, "symex")
    store = SolverKnowledgeStore(store_path)
    store.memo_record(key, {"backend": "symex", "seconds": 0.1, "paths": 1,
                            "solver_stats": {}, "report": {}})
    store.save()
    fresh = _verify_through_store(store_path, "symex", module, request)
    assert fresh.provenance != "memo-hit"
    again = _verify_through_store(store_path, "symex", module, request)
    assert again.provenance == "memo-hit"
    assert again.paths == fresh.paths


def test_clock_cut_outcome_is_not_memoized(tmp_path, wc_build):
    """A run the wall-clock budget cut is not recorded: on a loaded
    machine the truncation would otherwise answer every later identical
    request."""
    _, module = wc_build
    store_path = tmp_path / "knowledge.jsonl"
    request = VerificationRequest(symbolic_input_bytes=4,
                                  timeout_seconds=0.0)
    first = _verify_through_store(store_path, "symex", module, request)
    assert first.termination_reason == "timeout"
    again = _verify_through_store(store_path, "symex", module, request)
    assert again.provenance in ("cold", "warm-store")
    assert _stored_memo_count(store_path) == 0


def test_query_deadline_outcome_is_not_memoized():
    """A solver query deadline is the clock too: an outcome that hit one
    is not recorded, even when the run itself finished."""

    class DeadlineBackend:
        runs = 0

        def describe(self):
            return "stub"

        def verify(self, module, request):
            DeadlineBackend.runs += 1
            return VerificationOutcome(
                backend="stub", seconds=0.1, instructions=7, paths=1,
                errors=0, timed_out=False,
                solver_stats={"query_deadlines": 1})

    store = SolverKnowledgeStore(None)
    request = VerificationRequest()
    for _ in range(2):
        outcome = verify_memoized(store, DeadlineBackend(), None, request,
                                  "k")
        assert outcome.provenance == "cold"
    assert DeadlineBackend.runs == 2 and store.memo_count == 0


def test_instruction_budget_cut_outcome_is_memoized(tmp_path, wc_build):
    """An instruction budget counts work, not time: the truncated outcome
    is the same on any machine, so it is recorded."""
    _, module = wc_build
    store_path = tmp_path / "knowledge.jsonl"
    request = VerificationRequest(symbolic_input_bytes=4,
                                  max_instructions=20)
    first = _verify_through_store(store_path, "symex", module, request)
    assert first.termination_reason == "instructions"
    again = _verify_through_store(store_path, "symex", module, request)
    assert again.provenance == "memo-hit"
    assert (again.paths, again.instructions, again.termination_reason) == \
        (first.paths, first.instructions, first.termination_reason)


def test_requests_differing_only_in_timeout_share_one_memo(tmp_path,
                                                          wc_build):
    _, module = wc_build
    store_path = tmp_path / "knowledge.jsonl"
    first = _verify_through_store(
        store_path, "symex", module,
        VerificationRequest(symbolic_input_bytes=2, timeout_seconds=60.0))
    assert first.termination_reason == ""
    again = _verify_through_store(
        store_path, "symex", module,
        VerificationRequest(symbolic_input_bytes=2, timeout_seconds=30.0))
    assert again.provenance == "memo-hit"
    assert again.paths == first.paths
    assert _stored_memo_count(store_path) == 1


def _stored_memo_count(store_path):
    store = SolverKnowledgeStore(store_path)
    store.load()
    return store.memo_count


def test_backend_injected_caches_are_reused(wc_build):
    """Two runs sharing one injected cache set: the second run's group
    queries hit the first run's entries (ordinary cache hits — injected
    knowledge is not store-primed, so provenance stays cold)."""
    workload, module = wc_build
    caches = SharedSolverCaches()
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
    backend = make_backend("interp", caches=SharedSolverCaches())
    outcome = backend.verify(
        module, VerificationRequest(concrete_input=b"a b\n"))
    assert outcome.backend == "interp"


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


def _assert_same_verification(reply, cli):
    assert (reply["paths"], reply["errors"], reply["instructions"],
            reply["bug_signatures"]) == \
        (cli["paths"], cli["errors"], cli["instructions"],
         cli["bug_signatures"])
    # The CLI prints "(<reason> budget hit)" exactly when a budget
    # truncated the run.
    assert cli["budget"] == ""
    assert reply["timed_out"] is False
    assert reply["termination_reason"] == ""


def test_cli_memo_answers_the_server(tmp_path):
    """The CLI and the server share one memo key and one encoding: a
    store two CLI runs wrote answers the server's identical request."""
    store_path = tmp_path / "knowledge.jsonl"
    cold = _cli_store_verify(store_path)
    assert cold["provenance"] in ("cold", "warm-store")
    memo = _cli_store_verify(store_path)
    assert memo["provenance"] == "memo-hit"
    with _RunningServer(tmp_path, "cli-wrote",
                        store_path=store_path) as running:
        reply = running.client.verify(workload="buggy_div", level="-OVERIFY",
                                      input_bytes=4)
    assert reply["provenance"] == "memo-hit"
    _assert_same_verification(reply, cold)
    _assert_same_verification(reply, memo)


def test_server_memo_answers_the_cli(tmp_path):
    store_path = tmp_path / "knowledge.jsonl"
    with _RunningServer(tmp_path, "server-wrote",
                        store_path=store_path) as running:
        reply = running.client.verify(workload="buggy_div", level="-OVERIFY",
                                      input_bytes=4)
    assert reply["provenance"] == "cold"
    cli = _cli_store_verify(store_path)
    assert cli["provenance"] == "memo-hit"
    _assert_same_verification(reply, cli)


def test_server_interp_memo_is_the_cli_run(tmp_path):
    """A workload job runs on the workload's sample input, as the CLI
    does, so an interpreter memo the server wrote is the CLI's run."""
    store_path = tmp_path / "knowledge.jsonl"
    with _RunningServer(tmp_path, "interp", store_path=store_path,
                        backend="interp") as running:
        reply = running.client.verify(workload="wc", level="-OVERIFY")
    assert reply["provenance"] == "cold"
    plain = _cli_verify("wc", "--backend", "interp")
    memo = _cli_verify("wc", "--backend", "interp",
                       "--store", str(store_path))
    assert memo["provenance"] == "memo-hit"
    assert memo["instructions"] == plain["instructions"] == \
        reply["instructions"]


def test_server_persists_across_restart(tmp_path):
    """A brand-new server over the same store answers from the memo
    without priming its table; the first job it computes primes it."""
    store_path = tmp_path / "knowledge.jsonl"
    with _RunningServer(tmp_path, "first", store_path=store_path) as running:
        cold = running.client.verify(workload="uniq", level="-OVERIFY")
        assert cold["provenance"] == "cold"
    with _RunningServer(tmp_path, "second", store_path=store_path) as running:
        warm = running.client.verify(workload="uniq", level="-OVERIFY")
        assert warm["provenance"] == "memo-hit"
        assert warm["paths"] == cold["paths"]
        assert running.client.stats()["primed_entries"] == 0
        computed = running.client.verify(workload="uniq", level="-O2")
        assert computed["provenance"] != "memo-hit"
        assert running.client.stats()["primed_entries"] > 0


def test_concurrent_first_misses_prime_the_store_once(tmp_path, monkeypatch,
                                                     store_decodes):
    """Two distinct jobs that miss the memo at once share one prime: the
    second waits for the first one's entries instead of decoding the
    records again."""
    store_path = tmp_path / "knowledge.jsonl"
    assert _cli_store_verify(store_path)["provenance"] == "cold"
    loaded = SolverKnowledgeStore(store_path)
    assert loaded.load()
    loaded_wires = sum(len(record["constraints"])
                       for record in loaded._groups.values())
    assert loaded_wires > 0

    entered = []
    both_in = threading.Event()
    original_prime = SolverKnowledgeStore.prime

    def counted_prime(self):
        entered.append(self)
        if len(entered) == 2:
            both_in.set()
        return original_prime(self)

    store_decodes.clear()
    counted_decode = store_module.expr_from_wire

    def held_decode(nodes):
        # The first decode waits until the second job is in prime() too.
        if not store_decodes:
            both_in.wait(timeout=60)
        return counted_decode(nodes)

    monkeypatch.setattr(SolverKnowledgeStore, "prime", counted_prime)
    monkeypatch.setattr(store_module, "expr_from_wire", held_decode)
    with _RunningServer(tmp_path, "two-misses", store_path=store_path,
                        pool_size=2) as running:
        assert running.client.stats()["primed_entries"] == 0
        replies = []

        def submit(level):
            client = ServiceClient(running.socket_path, timeout=120.0)
            replies.append(client.verify(workload="buggy_div", level=level,
                                         input_bytes=4))

        threads = [threading.Thread(target=submit, args=(level,))
                   for level in ("-O0", "-O1")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        stats = running.client.stats()
    assert len(entered) == 2 and both_in.is_set()
    assert [reply["ok"] for reply in replies] == [True, True]
    assert all(reply["provenance"] != "memo-hit" for reply in replies)
    assert len(store_decodes) == loaded_wires
    assert stats["primed_entries"] == len(loaded._groups)


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


def test_server_reads_a_request_line_over_64_kib(tmp_path):
    """asyncio's default stream limit is 64 KiB: a longer request line
    once killed its connection with a traceback, and the client saw a
    retryable "empty reply" for a request that could never succeed."""
    source = ("int main(unsigned char *input, int len) { return 0; }\n"
              + "// pad\n" * 12_000)
    assert len(source) > 80_000
    with _RunningServer(tmp_path, "long-line") as running:
        reply = running.client.verify(source=source, level="-O0",
                                      input_bytes=1)
        assert reply["ok"] and reply["paths"] == 1
        assert running.client.ping() is True


def test_server_refuses_a_request_line_over_its_bound(tmp_path):
    """A line past ``MAX_REQUEST_BYTES`` gets one non-retryable protocol
    error, so a retrying client gives up at once, and the server goes on
    answering."""
    source = "// pad\n" * (2 * MAX_REQUEST_BYTES // 7)
    with _RunningServer(tmp_path, "huge-line") as running:
        client = ServiceClient(running.socket_path, timeout=60.0, retries=3)
        with pytest.raises(ServiceError) as excinfo:
            client.verify(source=source, level="-O0")
        assert excinfo.value.kind == "protocol"
        assert excinfo.value.retryable is False
        assert str(MAX_REQUEST_BYTES) in str(excinfo.value)
        assert running.client.ping() is True
        stats = running.client.stats()
        assert stats["jobs_failed"] == 1 and stats["jobs_completed"] == 0


@pytest.mark.parametrize("body, message", [
    ("return 1 +;", "unexpected token ';'"),
    ("return 0x;", "hexadecimal literal '0x' has no digits"),
], ids=["syntax-error", "hex-without-digits"])
def test_server_answers_bad_source_with_a_compile_error(tmp_path,
                                                        monkeypatch, body,
                                                        message):
    """Bad source is the client's fault: one non-retryable ``compile``
    error, so a retrying client sends it once, and the server goes on
    serving."""
    source = f"int main(unsigned char *input, int len) {{ {body} }}"
    with _RunningServer(tmp_path, "compile-error") as running:
        client = ServiceClient(running.socket_path, timeout=60.0, retries=3)
        attempts = []
        send_once = client._request_once
        monkeypatch.setattr(client, "_request_once", lambda payload: (
            attempts.append(payload), send_once(payload))[1])
        with pytest.raises(ServiceError, match=re.escape(message)) as excinfo:
            client.verify(source=source, level="-O0")
        assert excinfo.value.kind == "compile"
        assert excinfo.value.retryable is False
        assert len(attempts) == 1
        reply = running.client.verify(
            source="int main(unsigned char *input, int len) { return 0; }",
            level="-O0", input_bytes=1)
        assert reply["ok"] and reply["paths"] == 1
        stats = running.client.stats()
        assert stats["jobs_failed"] == 1 and stats["jobs_completed"] == 1


def test_server_refuses_input_bytes_over_its_bound(tmp_path, monkeypatch):
    """One symbolic byte per unit is built before any budget applies, so
    an unbounded ``input_bytes`` could exhaust the server's memory."""
    states = []
    monkeypatch.setattr(SymbolicExecutor, "make_initial_state",
                        lambda self, size: states.append(size))
    with _RunningServer(tmp_path, "input-bound") as running:
        with pytest.raises(ServiceError, match="'input_bytes' must be <= "
                           f"{MAX_INPUT_BYTES}") as excinfo:
            running.client.verify(workload="wc",
                                  input_bytes=MAX_INPUT_BYTES + 1)
        assert excinfo.value.kind == "protocol"
        assert running.client.stats()["jobs_failed"] == 1
        assert running.server.session.stats.compiles == 0
    assert states == []
    job = running.server._resolve_job({"workload": "wc",
                                       "input_bytes": MAX_INPUT_BYTES})
    assert job["request"].symbolic_input_bytes == MAX_INPUT_BYTES


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
