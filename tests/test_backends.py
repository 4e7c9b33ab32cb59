"""Tests for the :class:`VerificationBackend` protocol: registry, textual
specs, searcher selection, and parity with driving the engines by hand."""

import pytest

from repro.harness import ExperimentConfig, run_experiment, run_level_sweep
from repro.interp import InterpBackend, run_module
from repro.pipelines import OptLevel, compile_source
from repro.symex import SharedSolverCaches, SymexBackend, SymexLimits, explore
from repro.verification import (
    BackendSpecError, VerificationRequest, backend_names, make_backend,
)
from repro.workloads import get_workload


class TestRegistry:
    def test_builtin_backends_are_registered(self):
        assert {"symex", "interp"} <= set(backend_names())

    def test_spec_parsing_and_describe(self):
        assert make_backend("symex").describe() == "symex"
        assert make_backend("symex<searcher=bfs>").describe() == \
            "symex<searcher=bfs>"
        assert isinstance(make_backend("interp"), InterpBackend)
        assert isinstance(make_backend("symex"), SymexBackend)

    def test_default_params_fill_gaps_but_spec_wins(self):
        assert make_backend("symex", searcher="random").searcher == "random"
        assert make_backend("symex<searcher=bfs>",
                            searcher="random").searcher == "bfs"
        # defaults the backend does not understand are dropped
        assert isinstance(make_backend("interp", searcher="dfs"),
                          InterpBackend)

    def test_unknown_backend_error(self):
        with pytest.raises(BackendSpecError, match="unknown verification "
                                                   "backend 'klee'"):
            make_backend("klee")

    def test_unknown_searcher_error(self):
        # surfaces as a BackendSpecError so CLI error handling catches it
        with pytest.raises(BackendSpecError,
                           match="unknown search strategy"):
            make_backend("symex<searcher=zigzag>")

    def test_explicit_unknown_param_rejected(self):
        with pytest.raises(BackendSpecError, match="rejected parameters"):
            make_backend("interp<searcher=dfs>")

    def test_duplicate_backend_param_rejected(self):
        with pytest.raises(BackendSpecError, match="duplicate parameter"):
            make_backend("symex<searcher=bfs,searcher=dfs>")

    @pytest.mark.parametrize("setting", [
        "processes=on", "ubtree=off", "branch-and-prune=off",
        "seeded-splits=off", "ubtree-capacity=4", "minimize-cores=off",
        "workers=1", "workers=4"])
    def test_deleted_symex_settings_rejected(self, setting):
        # These spec keys once selected solver and engine mechanisms that
        # no longer exist (``workers`` sized the thread pool); naming one
        # must fail loudly, not be ignored.
        with pytest.raises(BackendSpecError, match="rejected parameters"):
            make_backend(f"symex<{setting}>")

    @pytest.mark.parametrize("spec", [
        "symex<searcher=bfs>", "symex<searcher=random>",
        "symex<rewrite-equalities=off>", "symex<query-deadline-ms=250>",
        "symex<searcher=random,rewrite-equalities=off,"
        "query-deadline-ms=50>"])
    def test_kept_symex_settings_round_trip(self, spec):
        # The engine keys that remain build and describe themselves in
        # canonical form, so a spec names one configuration exactly.
        assert make_backend(spec).describe() == spec

    @pytest.mark.parametrize("value", ["--5", "\u00b2"])
    def test_non_integer_text_reaches_the_backend_check(self, value):
        # Only an optional '-' and ASCII digits parse as an integer; any
        # other value is handed over as text, which the backend rejects.
        with pytest.raises(BackendSpecError, match="must be an integer"):
            make_backend(f"symex<query-deadline-ms={value}>")

    def test_caches_must_be_shared_solver_caches(self):
        # ``caches`` takes an object, so spec text can never supply one.
        with pytest.raises(BackendSpecError, match="'caches' must be"):
            make_backend("symex<caches=x>")
        with pytest.raises(BackendSpecError, match="'caches' must be"):
            make_backend("symex", caches="x")
        caches = SharedSolverCaches(num_stripes=1)
        assert make_backend("symex", caches=caches).caches is caches

    @pytest.mark.parametrize("argv", [
        ["wc", "--verify", "--backend", "symex<query-deadline-ms=--5>"],
        ["wc", "--verify", "--backend", "symex<caches=x>",
         "--input-bytes", "1"],
        ["serve", "{sock}", "--backend", "symex<query-deadline-ms=--5>"],
    ], ids=["verify-double-minus", "verify-caches", "serve-double-minus"])
    def test_bad_spec_is_a_cli_error(self, argv, tmp_path, capsys):
        """A spec the backend rejects ends the CLI with exit status 1
        and an ``error:`` line, not a traceback or a run that abandons
        every path."""
        from repro.__main__ import main

        sock = str(tmp_path / "verify.sock")
        assert main([arg.format(sock=sock) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: symex: ")
        assert "Traceback" not in err


class TestBackendParity:
    """Backends must report exactly what hand-driving the engines reports."""

    def test_symex_backend_matches_explore(self, compiled_wc):
        request = VerificationRequest(symbolic_input_bytes=2,
                                      timeout_seconds=30.0)
        outcome = make_backend("symex").verify(compiled_wc.module, request)
        report = explore(compiled_wc.module, 2,
                         limits=SymexLimits(timeout_seconds=30.0,
                                            max_instructions=5_000_000))
        assert outcome.paths == report.stats.total_paths
        assert outcome.errors == report.stats.paths_errored
        assert outcome.instructions == report.stats.instructions_interpreted
        assert outcome.bug_signatures == frozenset(report.bug_signatures())
        assert not outcome.timed_out

    def test_searchers_agree_on_path_count(self, compiled_wc):
        request = VerificationRequest(symbolic_input_bytes=2,
                                      timeout_seconds=30.0)
        counts = {
            name: make_backend(f"symex<searcher={name}>")
            .verify(compiled_wc.module, request).paths
            for name in ("dfs", "bfs", "random")
        }
        assert counts["dfs"] == counts["bfs"] == counts["random"]

    def test_interp_backend_matches_run_module(self, compiled_wc):
        request = VerificationRequest(concrete_input=b"one two\n")
        outcome = make_backend("interp").verify(compiled_wc.module, request)
        result = run_module(compiled_wc.module, b"one two\n")
        assert outcome.return_value == result.return_value
        assert outcome.instructions == result.stats.instructions_executed
        assert outcome.paths == 1
        assert outcome.errors == 0

    def test_interp_backend_honors_instruction_budget(self, compiled_wc):
        request = VerificationRequest(concrete_input=b"one two\n",
                                      max_instructions=10)
        outcome = make_backend("interp").verify(compiled_wc.module, request)
        assert outcome.errors == 1
        assert outcome.timed_out

    def test_interp_backend_reports_crashes(self):
        compiled = compile_source(get_workload("buggy_div").source,
                                  level=OptLevel.O0)
        request = VerificationRequest(concrete_input=b"0abc")
        outcome = make_backend("interp").verify(compiled.module, request)
        assert outcome.errors == 1
        assert len(outcome.bug_signatures) == 1


class TestExperimentHarness:
    def test_run_experiment_parity_with_manual_engines(self):
        source = get_workload("wc").source
        config = ExperimentConfig(level=OptLevel.O2, symbolic_input_bytes=2,
                                  concrete_input=b"a b\n",
                                  timeout_seconds=30.0)
        result = run_experiment("wc", source, config)

        compiled = compile_source(source, level=OptLevel.O2)
        report = explore(compiled.module, 2,
                         limits=SymexLimits(timeout_seconds=30.0,
                                            max_instructions=5_000_000))
        concrete = run_module(compiled.module, b"a b\n")

        assert result.paths == report.stats.total_paths
        assert result.errors == report.stats.paths_errored
        assert result.static_instructions == compiled.instruction_count
        assert result.interpreted_instructions == \
            report.stats.instructions_interpreted
        assert result.concrete_instructions == \
            concrete.stats.instructions_executed
        assert result.return_value == concrete.return_value
        assert result.verify_backend == "symex"

    def test_run_experiment_with_named_searcher(self):
        source = get_workload("echo").source
        config = ExperimentConfig(level=OptLevel.O0, symbolic_input_bytes=2,
                                  timeout_seconds=30.0,
                                  backend="symex<searcher=bfs>")
        result = run_experiment("echo", source, config)
        assert result.verify_backend == "symex<searcher=bfs>"
        assert result.paths > 0

    def test_run_level_sweep_preserves_config_fields(self):
        # run_level_sweep copies the config with dataclasses.replace, so
        # non-default fields (like the backend spec) survive into every
        # level's experiment.
        source = get_workload("echo").source
        base = ExperimentConfig(level=OptLevel.O0, symbolic_input_bytes=2,
                                timeout_seconds=30.0,
                                backend="symex<searcher=bfs>")
        results = run_level_sweep("echo", source,
                                  [OptLevel.O0, OptLevel.O2], base)
        assert set(results) == {OptLevel.O0, OptLevel.O2}
        for result in results.values():
            assert result.verify_backend == "symex<searcher=bfs>"
