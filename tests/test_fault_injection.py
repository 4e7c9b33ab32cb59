"""Chaos suite: the deterministic fault-injection matrix.

Every registered fault site is driven through its host layer and must
produce a *structured* failure — a contained engine-error path, a
degraded cold store, a protocol error response — in bounded wall time,
never a hang, never a corrupt store, never an unhandled exception.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest

from repro import faults
from repro.faults import (
    EngineError, FaultPlanError, INJECTOR, ProtocolError, ReproError,
    SolverError, StoreError, injected,
)
from repro.pipelines import CompileOptions, OptLevel, compile_source
from repro.service import ServiceClient, ServiceError, SolverKnowledgeStore
from repro.service.server import VerificationServer
from repro.service.store import outcome_to_memo, memo_to_outcome
from repro.symex import (
    SharedSolverCaches, Solver, SolverConfig, StateStatus, SymbolicExecutor,
    SymexLimits, explore,
)
from repro.verification import VerificationRequest, make_backend
from repro.workloads import get_workload

LIMITS = SymexLimits(timeout_seconds=120.0)


@pytest.fixture(autouse=True)
def _disarm_after():
    """No test leaks an installed plan into the rest of the suite."""
    yield
    INJECTOR.clear()


@pytest.fixture(scope="module")
def wc_module():
    return compile_source(get_workload("wc").source,
                          CompileOptions(level=OptLevel.O1)).module


def _fingerprint(report):
    """The outcome of a run: paths, errors, instructions and bug
    signatures."""
    stats = report.stats
    return {
        "paths_completed": stats.paths_completed,
        "paths_errored": stats.paths_errored,
        "total_paths": stats.total_paths,
        "engine_errors": stats.engine_errors,
        "instructions": stats.instructions_interpreted,
        "bug_signatures": frozenset(report.bug_signatures()),
    }


# ------------------------------------------------------------ plan grammar


class TestPlanGrammar:
    def test_every_fires_deterministically(self):
        site = faults.site("test.alpha")
        with injected("test.alpha:every=3"):
            raised = []
            for hit in range(1, 10):
                try:
                    site.fire()
                except EngineError:
                    raised.append(hit)
            assert raised == [3, 6, 9]
            assert site.fired == 3

    def test_once_fires_exactly_once(self):
        site = faults.site("test.beta")
        with injected("test.beta:once"):
            with pytest.raises(EngineError) as excinfo:
                site.fire()
            assert excinfo.value.site == "test.beta"
            for _ in range(20):
                site.fire()  # budget spent: silent forever after
            assert site.fired == 1

    def test_times_caps_firings(self):
        site = faults.site("test.gamma")
        with injected("test.gamma:every=2,times=2"):
            fired = 0
            for _ in range(20):
                try:
                    site.fire()
                except EngineError:
                    fired += 1
            assert fired == 2

    def test_prob_is_deterministic_across_installs(self):
        site = faults.site("test.delta")

        def pattern(plan):
            with injected(plan):
                hits = []
                for hit in range(1, 201):
                    try:
                        site.fire()
                    except EngineError:
                        hits.append(hit)
                return hits

        first = pattern("test.delta:prob=0.1;seed=7")
        assert first == pattern("test.delta:prob=0.1;seed=7")
        assert first != pattern("test.delta:prob=0.1;seed=8")
        assert 0 < len(first) < 60  # ~20 expected of 200

    def test_error_class_follows_registration(self):
        site = faults.site("test.epsilon", StoreError)
        with injected("test.epsilon"):
            with pytest.raises(StoreError):
                site.fire()

    def test_plan_arms_sites_registered_later(self):
        with injected("test.zeta-late:once"):
            site = faults.site("test.zeta-late")
            assert site.armed
            with pytest.raises(EngineError):
                site.fire()

    def test_injected_restores_previous_plan(self):
        site = faults.site("test.eta")
        with injected("test.eta"):
            with injected("test.theta"):
                assert not site.armed
            assert site.armed
        assert not site.armed

    @pytest.mark.parametrize("plan", [
        "site:every=0", "site:prob=1.5", "site:prob=nope",
        "site:every=2,prob=0.5", "site:times=-2", "site:frequency=3",
        "seed=abc", "bad name:once",
    ])
    def test_malformed_plans_are_rejected(self, plan):
        with pytest.raises(FaultPlanError):
            INJECTOR.install(plan)

    def test_env_plan_arms_at_import(self):
        code = ("import repro.symex.solver as s, repro.faults as f;"
                "print(','.join(f.INJECTOR.armed()))")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "REPRO_FAULTS": "solver.check:prob=0.5",
                 "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "solver.check"

    def test_registry_covers_every_layer(self):
        import repro.service.server  # noqa: F401 - registers server.handle
        registered = INJECTOR.registered()
        for name in ("solver.check", "engine.step",
                     "store.write", "store.load", "server.handle"):
            assert name in registered


# ----------------------------------------------------- path-level containment


class TestEngineContainment:
    def test_solver_fault_is_contained_per_path(self, wc_module):
        clean = explore(wc_module, 3, limits=LIMITS)
        with injected("solver.check:every=4"):
            report = explore(wc_module, 3, limits=LIMITS)
        stats = report.stats
        assert stats.engine_errors > 0
        # Failed paths are diagnosed, not counted as explored.
        assert stats.total_paths < clean.stats.total_paths
        assert any("solver.check" in line for line in report.diagnostics)
        errored = [record for record in report.paths
                   if record.status is StateStatus.ENGINE_ERROR]
        assert len(errored) == stats.engine_errors

    def test_engine_step_fault_is_contained(self, wc_module):
        with injected("engine.step:every=2"):
            report = explore(wc_module, 3, limits=LIMITS)
        assert report.stats.engine_errors > 0
        assert any("engine.step" in line for line in report.diagnostics)

    def test_every_path_failing_still_terminates(self, wc_module):
        with injected("engine.step:every=1"):
            report = explore(wc_module, 3, limits=LIMITS)
        # Only paths shorter than the budget-check stride can still
        # finish; everything that reaches the site is abandoned, and the
        # run terminates instead of looping on the failing frontier.
        assert report.stats.engine_errors > 0
        assert report.stats.paths_completed <= 1

    def test_engine_error_paths_spend_path_budget(self):
        # Abandoned paths count toward max_paths: a fully failing run
        # cannot grind through an unbounded frontier.
        from repro.symex import ExplorationBudget, SymexStats
        stats = SymexStats(paths_completed=1, engine_errors=3)
        budget = ExplorationBudget(SymexLimits(max_paths=4), stats)
        assert budget.exhausted() == "paths"
        stats.engine_errors = 2
        assert budget.exhausted() is None

    def test_engine_errors_survive_the_memo_round_trip(self, wc_module):
        # The memo keeps the count of contained engine errors; the
        # engine report with its diagnostics stays with the cold run.
        with injected("solver.check:every=4"):
            outcome = make_backend("symex").verify(
                wc_module, VerificationRequest(symbolic_input_bytes=3))
        assert outcome.engine_errors > 0
        decoded = memo_to_outcome(outcome_to_memo(outcome), backend="symex")
        assert decoded.engine_errors == outcome.engine_errors
        assert decoded.detail is None


# -------------------------------------------------------------- store faults


def _populated_store(path):
    store = SolverKnowledgeStore(path)
    store.memo_record("k" * 64, {"paths": 1})
    return store


class TestStoreFaults:
    def test_torn_write_leaves_previous_file_intact(self, tmp_path):
        path = tmp_path / "knowledge.jsonl"
        _populated_store(path).save()
        before = path.read_bytes()
        store = _populated_store(path)
        store.memo_record("m" * 64, {"paths": 2})
        with injected("store.write:once"):
            with pytest.raises(StoreError) as excinfo:
                store.save()
            assert excinfo.value.site == "store.write"
            assert excinfo.value.retryable
            assert path.read_bytes() == before  # atomicity held
            assert list(tmp_path.glob("*.tmp")) == []  # no debris
            store.save()  # budget spent: the retry succeeds
        assert path.read_bytes() != before
        assert SolverKnowledgeStore(path).load() is True

    def test_load_fault_degrades_to_cold_without_touching_file(
            self, tmp_path):
        path = tmp_path / "knowledge.jsonl"
        _populated_store(path).save()
        before = path.read_bytes()
        store = SolverKnowledgeStore(path)
        with injected("store.load:once"):
            assert store.load() is False
            assert store.load_error.startswith("fault")
            assert path.read_bytes() == before
            assert store.load() is True  # budget spent: warm again

    def test_corrupt_store_is_quarantined_not_relooped(self, tmp_path):
        path = tmp_path / "knowledge.jsonl"
        path.write_text("garbage that is definitely not a store\n")
        store = SolverKnowledgeStore(path)
        assert store.load() is False
        assert store.load_error.startswith("corrupt")
        quarantined = tmp_path / "knowledge.jsonl.corrupt-1"
        assert store.quarantined == str(quarantined)
        assert quarantined.exists()
        assert not path.exists()
        # The next write starts clean; a second corruption lands in -2.
        _populated_store(path).save()
        assert SolverKnowledgeStore(path).load() is True
        path.write_text("garbage again\n")
        store2 = SolverKnowledgeStore(path)
        assert store2.load() is False
        assert store2.quarantined.endswith(".corrupt-2")

    def test_cli_survives_save_fault_end_to_end(self, tmp_path, capsys):
        from repro.__main__ import main

        store_path = tmp_path / "knowledge.jsonl"
        argv = ["wc", "--level", "O1", "--verify", "--input-bytes", "3",
                "--store", str(store_path)]
        with injected("store.write:once"):
            assert main(argv) == 0  # the verification stood...
        captured = capsys.readouterr()
        assert "[cold]" in captured.out
        assert "store not saved" in captured.err
        assert not store_path.exists()  # ...but nothing persisted
        assert main(argv) == 0
        assert "[cold]" in capsys.readouterr().out
        assert store_path.exists()

    def test_relcheck_cli_survives_save_fault_end_to_end(self, tmp_path,
                                                         capsys):
        from repro.__main__ import main

        store_path = tmp_path / "relcheck.jsonl"
        argv = ["relcheck", "wc", "--input-bytes", "2",
                "--store", str(store_path)]
        with injected("store.write:once"):
            assert main(argv) == 0  # no divergence, and no traceback
        captured = capsys.readouterr()
        assert "EQUIVALENT" in captured.out and "[cold]" in captured.out
        assert "store not saved" in captured.err
        assert not store_path.exists()
        assert main(argv) == 0
        assert store_path.exists()
        assert main(argv) == 0  # the saved memo answers the rerun
        assert "[memo-hit]" in capsys.readouterr().out


# ------------------------------------------------------------ query deadline


class TestQueryDeadline:
    def test_expired_queries_answer_conservatively(self, wc_module):
        config = SolverConfig(query_deadline_seconds=1e-9)
        start = time.monotonic()
        report = explore(wc_module, 2, limits=LIMITS,
                         solver=Solver(config=config))
        assert time.monotonic() - start < 60.0
        assert report.solver_stats.query_deadlines > 0
        assert report.stats.total_paths > 0  # degraded, not dead

    def test_generous_deadline_changes_nothing(self, wc_module):
        clean = explore(wc_module, 3, limits=LIMITS)
        timed = explore(wc_module, 3, limits=LIMITS,
                        solver=Solver(config=SolverConfig(
                            query_deadline_seconds=300.0)))
        assert timed.solver_stats.query_deadlines == 0
        assert _fingerprint(timed) == _fingerprint(clean)

    def test_deadline_spec_round_trips(self):
        backend = make_backend("symex<query-deadline-ms=250>")
        assert backend.solver_config.query_deadline_seconds == 0.25
        assert "query-deadline-ms=250" in backend.describe()
        assert make_backend(backend.describe()) \
            .solver_config.query_deadline_seconds == 0.25


# ------------------------------------------------------------ service faults


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


class TestServiceFaults:
    def test_handler_fault_is_one_structured_error(self, tmp_path):
        with _RunningServer(tmp_path, "chaos") as running:
            with injected("server.handle:once"):
                with pytest.raises(ServiceError) as excinfo:
                    running.client.ping()
                assert excinfo.value.kind == "engine"
                assert running.client.ping() is True  # still serving

    def test_protocol_errors_are_structured(self, tmp_path):
        with _RunningServer(tmp_path, "proto") as running:
            client = running.client
            cases = [
                {"op": "verify", "workload": "wc", "timeout": "abc"},
                {"op": "verify", "workload": "wc", "timeout": float("inf")},
                {"op": "verify", "workload": "wc", "timeout": -1},
                {"op": "verify", "workload": "wc", "input_bytes": 0},
                {"op": "verify", "workload": "wc", "input_bytes": True},
                {"op": "verify", "workload": "wc", "max_instructions": -5},
                {"op": "verify", "workload": "wc", "deadline": -2.0},
                {"op": "frobnicate"},
            ]
            for payload in cases:
                with pytest.raises(ServiceError) as excinfo:
                    client.request(payload)
                assert excinfo.value.kind == "protocol", payload
                assert excinfo.value.retryable is False
            # Raw garbage on the wire gets the same structured answer.
            import json
            import socket as socket_module
            with socket_module.socket(socket_module.AF_UNIX,
                                      socket_module.SOCK_STREAM) as sock:
                sock.settimeout(10.0)
                sock.connect(running.socket_path)
                sock.sendall(b"this is not json\n")
                reply = json.loads(sock.recv(65536))
            assert reply["ok"] is False
            assert reply["error_kind"] == "protocol"
            assert client.ping() is True
            assert client.stats()["jobs_failed"] >= len(cases) + 1

    def test_job_deadline_caps_the_engine_budget(self, tmp_path):
        with _RunningServer(tmp_path, "deadline") as running:
            result = running.client.verify(workload="wc", level="-O0",
                                           input_bytes=3, timeout=600.0,
                                           deadline=0.05)
            # Cooperative leg: the engine stopped itself at the deadline
            # (or finished under it); either way the response is bounded
            # and structured.
            assert result["ok"] is True
            if result["timed_out"]:
                assert result["termination_reason"] == "timeout"

    def test_store_save_fault_is_counted_not_fatal(self, tmp_path):
        store_path = tmp_path / "knowledge.jsonl"
        with _RunningServer(tmp_path, "saves",
                            store_path=store_path) as running:
            with injected("store.write:once"):
                result = running.client.verify(workload="wc", level="-O2",
                                               input_bytes=3)
                assert result["ok"] is True
            stats = running.client.stats()
            assert stats["saves_failed"] == 1
            assert stats["jobs_completed"] == 1
        # The shutdown save (fault budget spent) still persisted.
        assert store_path.exists()


# --------------------------------------------------------- command-line input


class TestCommandLineInput:
    """The command lines refuse a symbolic input size below 1 with a usage
    error, as the service refuses ``input_bytes`` below 1 with a protocol
    error, instead of verifying a nonsense size or crashing."""

    @pytest.mark.parametrize("argv", [
        ["wc", "--verify", "--input-bytes", "-3"],
        ["relcheck", "wc", "--input-bytes", "-2"],
        ["fuzz", "--seed", "0", "--input-bytes", "0"],
    ], ids=["compile", "relcheck", "fuzz"])
    def test_input_bytes_below_one_is_a_usage_error(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--input-bytes must be >= 1" in capsys.readouterr().err

    def test_engine_rejects_a_negative_input_size(self, wc_module):
        with pytest.raises(ValueError):
            SymbolicExecutor(wc_module).make_initial_state(-1)

    @pytest.mark.parametrize("argv, message", [
        (["wc", "--timeout", "nan"], "--timeout must be a finite number"),
        (["wc", "--verify", "--timeout", "inf"],
         "--timeout must be a finite number"),
        (["wc", "--verify", "--timeout", "-1"],
         "--timeout must be a finite number >= 0"),
        (["relcheck", "wc", "--timeout", "nan"],
         "--timeout must be a finite number"),
        (["relcheck", "wc", "--timeout", "-1"],
         "--timeout must be a finite number >= 0"),
        (["relcheck", "wc", "--max-paths", "0"], "--max-paths must be >= 1"),
        (["relcheck", "wc", "--max-paths", "-5"], "--max-paths must be >= 1"),
        (["fuzz", "--seed", "0", "--timeout", "nan"],
         "--timeout must be a finite number"),
        (["fuzz", "--seed", "0", "--timeout", "-0.5"],
         "--timeout must be a finite number >= 0"),
        (["fuzz", "--seed", "0", "--max-paths", "0"],
         "--max-paths must be >= 1"),
        (["serve", "verify.sock", "--pool", "0"], "--pool must be >= 1"),
        (["serve", "verify.sock", "--pool", "-2"], "--pool must be >= 1"),
    ], ids=["compile-nan", "compile-inf", "compile-negative",
            "relcheck-nan", "relcheck-negative", "relcheck-paths-0",
            "relcheck-paths-negative", "fuzz-nan", "fuzz-negative",
            "fuzz-paths-0", "serve-pool-0", "serve-pool-negative"])
    def test_bad_budget_is_a_usage_error(self, argv, message, capsys):
        """A NaN timeout never runs out (every ``elapsed > timeout``
        comparison is false), a negative one ends the run before its first
        path, and a path budget below 1 explores nothing: each is refused
        up front, as the service refuses them with a protocol error."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_relcheck_workers_flag_is_gone(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["relcheck", "wc", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_engine_rejects_a_nan_timeout(self, wc_module):
        from repro.symex import ExplorationBudget, SymexStats

        with pytest.raises(ValueError, match="nan"):
            ExplorationBudget(SymexLimits(timeout_seconds=float("nan")),
                              SymexStats())
        with pytest.raises(ValueError, match="nan"):
            explore(wc_module, 1,
                    limits=SymexLimits(timeout_seconds=float("nan")))

    @pytest.mark.parametrize("flag", ["--verify", "--run",
                                      "--explain-paths"])
    def test_source_without_main_is_an_error(self, flag, tmp_path, capsys):
        """A program with nothing to explore or run gets an ``error:``
        line and exit status 1, as a compile error does, instead of a
        ``KeyError`` traceback from the entry lookup.  Compiling it alone
        still succeeds."""
        from repro.__main__ import main

        source = tmp_path / "helper.c"
        source.write_text("int helper(int a) { return a; }\n")
        assert main(["--source", str(source), flag]) == 1
        assert "error: program defines no function 'main'" in \
            capsys.readouterr().err
        assert main(["--source", str(source)]) == 0


# --------------------------------------------------------------- client retry


class TestClientRetry:
    def test_unavailable_is_retried_then_raised(self, tmp_path):
        client = ServiceClient(tmp_path / "nobody.sock", timeout=1.0,
                               retries=2, backoff=0.01)
        start = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client.ping()
        assert excinfo.value.kind == "unavailable"
        assert time.monotonic() - start >= 0.01  # it did back off

    def test_protocol_errors_are_never_retried(self, tmp_path):
        with _RunningServer(tmp_path, "noretry") as running:
            client = ServiceClient(running.socket_path, timeout=30.0,
                                   retries=3, backoff=0.01)
            start = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.request({"op": "frobnicate"})
            assert excinfo.value.kind == "protocol"
            assert time.monotonic() - start < 5.0


# ------------------------------------------------------------------ taxonomy


class TestTaxonomy:
    def test_kinds_are_stable_wire_identifiers(self):
        assert SolverError("x").kind == "solver"
        assert EngineError("x").kind == "engine"
        assert StoreError("x").kind == "store"
        assert ProtocolError("x").kind == "protocol"
        assert issubclass(SolverError, ReproError)

    def test_retryable_hints(self):
        assert StoreError("x").retryable
        assert not ProtocolError("x").retryable
        assert not SolverError("x").retryable

    def test_site_travels_with_the_error(self):
        exc = StoreError("boom", site="store.write")
        assert exc.site == "store.write"
        assert StoreError("boom").site is None
