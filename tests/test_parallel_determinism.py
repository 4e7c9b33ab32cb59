"""Exploration is one loop, and its results depend only on the program.

Every searcher must visit the same paths, and a run must come out the same
whether its solver caches are private, shared with another thread that is
verifying at the same time (as the verification service's job threads
share one locked cache set), or already warm.  Relcheck inherits the
contract: its report may not depend on the searcher or on cache warmth.
The remaining tests pin the machinery those contracts rest on: the
shared table of solver results and the COW ownership invariants under
forking.
"""

import threading

import pytest

from repro.pipelines import CompileOptions, OptLevel, compile_source
from repro.symex import (
    ExecutionState, ParallelExecutor, SharedSolverCaches, Solver,
    SolverConfig, SymbolicExecutor, SymexLimits, binary, const, explore,
    var,
)
from repro.symex.expr import ExprOp
from repro.verification import VerificationRequest, make_backend
from repro.workloads import get_workload

from conftest import as_partition, compile_workload_module

LIMITS_KW = dict(timeout_seconds=120.0)

#: Workloads for the differential: the headline kernel, a branchier text
#: filter, and the two seeded-bug programs (several error paths each, so
#: bug signatures are compared, not just path counts).
DIFFERENTIAL_WORKLOADS = ["wc", "uniq", "buggy_div", "buggy_index"]
DIFFERENTIAL_BYTES = 3


def _outcome_fingerprint(report):
    """Everything about a run that must not depend on the searcher or on
    the solver caches: path counts by status, instructions, and the
    bug-signature set.  Timings, state ids, cache-hit counters and
    model-dependent test inputs are deliberately excluded."""
    stats = report.stats
    return {
        "paths_completed": stats.paths_completed,
        "paths_errored": stats.paths_errored,
        "paths_terminated": stats.paths_terminated,
        "total_paths": stats.total_paths,
        "instructions": stats.instructions_interpreted,
        "branches": stats.branches_encountered,
        "forks": stats.forks,
        "states_created": stats.states_created,
        "bug_signatures": frozenset(report.bug_signatures()),
        "queries": report.solver_stats.queries,
        "timed_out": stats.timed_out,
    }


def _verdict_fingerprint(outcome):
    """The verdict part of a backend outcome."""
    return (outcome.paths, outcome.errors, outcome.instructions,
            outcome.bug_signatures, outcome.timed_out,
            outcome.termination_reason)


class TestSearcherIndependence:
    @pytest.mark.parametrize("searcher", ["bfs", "random"])
    @pytest.mark.parametrize("name", DIFFERENTIAL_WORKLOADS)
    def test_searcher_matches_dfs(self, name, searcher):
        """The searcher shapes order only: exhaustive exploration visits
        the same paths, errors, instructions and bug signatures."""
        module = compile_workload_module(name)
        baseline = explore(module, DIFFERENTIAL_BYTES,
                           limits=SymexLimits(**LIMITS_KW))
        reordered = explore(module, DIFFERENTIAL_BYTES, searcher=searcher,
                            limits=SymexLimits(**LIMITS_KW))
        assert _outcome_fingerprint(reordered) == \
            _outcome_fingerprint(baseline)


class TestSharedCachesAcrossThreads:
    @pytest.mark.parametrize("name", DIFFERENTIAL_WORKLOADS)
    def test_concurrent_jobs_match_private_runs(self, name):
        """Two threads verify a workload's -O0 and -OVERIFY builds at the
        same time through one backend over one locked cache set, as the
        service's job threads do; each verdict matches a run with private
        caches."""
        source = get_workload(name).source
        modules = [compile_source(source, CompileOptions(level=level)).module
                   for level in (OptLevel.O0, OptLevel.OVERIFY)]
        request = VerificationRequest(symbolic_input_bytes=DIFFERENTIAL_BYTES,
                                      timeout_seconds=120.0)
        private = [make_backend("symex").verify(module, request)
                   for module in modules]
        caches = SharedSolverCaches()
        backend = make_backend("symex", caches=caches)
        start = threading.Barrier(len(modules))
        shared = [None] * len(modules)

        def job(index):
            start.wait(timeout=60)
            shared[index] = backend.verify(modules[index], request)

        threads = [threading.Thread(target=job, args=(index,))
                   for index in range(len(modules))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert [_verdict_fingerprint(outcome) for outcome in shared] == \
            [_verdict_fingerprint(outcome) for outcome in private]


class TestRelcheckDeterminism:
    """Relcheck's report may depend only on the two modules and the
    configuration: not on whether the shared caches start cold or warm,
    and not on the order the searcher finishes reference paths in."""

    @staticmethod
    def _fingerprint(report):
        return {
            "stats": report.stats.as_dict(),
            "verdicts": [(v.index, v.kind, v.status, v.detail,
                          v.counterexample) for v in report.verdicts],
            "divergences": [(d.kind, d.detail, d.counterexample)
                            for d in report.divergences],
            "truncated": report.truncated,
        }

    @staticmethod
    def _planted_miscompile():
        """A reference module that traps on input[0] == 0 and a module
        whose broken pipeline deleted the trap."""
        from repro.frontend import compile_to_ir
        from repro.pipelines import build_pipeline_from_text

        source = """
        int main(unsigned char *input, int len) {
            int t = 100 / input[0];
            return 7;
        }
        """
        module_a = compile_to_ir(source)
        module_b = compile_to_ir(source)
        build_pipeline_from_text("mem2reg,dce<unsafe-traps>").run(module_b)
        return module_a, module_b

    @staticmethod
    def _workload_pair(name):
        source = get_workload(name).source
        return tuple(compile_source(source, CompileOptions(level=level)).module
                     for level in (OptLevel.O0, OptLevel.OVERIFY))

    @pytest.mark.parametrize("name", ["wc", "buggy_div"])
    def test_warm_caches_give_the_cold_report(self, name):
        from repro.relcheck import RelcheckConfig, relcheck_modules

        module_a, module_b = self._workload_pair(name)
        config = RelcheckConfig(input_bytes=DIFFERENTIAL_BYTES)
        caches = SharedSolverCaches()
        cold = relcheck_modules(module_a, module_b, config=config,
                                shared_caches=caches)
        warm = relcheck_modules(module_a, module_b, config=config,
                                shared_caches=caches)
        assert cold.clean
        assert self._fingerprint(warm) == self._fingerprint(cold)
        # The second run really did answer from what the first learned.
        assert warm.solver_stats.csp_searches < \
            cold.solver_stats.csp_searches

    def test_warm_caches_keep_the_divergence(self):
        """The divergent case too: the same divergence kinds *and the
        same concrete counterexamples* from cold and warm caches."""
        from repro.relcheck import RelcheckConfig, relcheck_modules

        module_a, module_b = self._planted_miscompile()
        caches = SharedSolverCaches()
        runs = [relcheck_modules(module_a, module_b, pair=("-O0", "-Obroken"),
                                 config=RelcheckConfig(input_bytes=1),
                                 shared_caches=caches)
                for _ in range(2)]
        assert not runs[0].clean
        assert self._fingerprint(runs[1]) == self._fingerprint(runs[0])

    @pytest.mark.parametrize("searcher", ["bfs", "random"])
    def test_report_does_not_depend_on_the_searcher(self, searcher):
        """Finished reference paths are replayed in a canonical content
        order, so verdict indexes and counters match a dfs run."""
        from repro.relcheck import RelcheckConfig, relcheck_modules

        module_a, module_b = self._workload_pair("buggy_index")
        reports = [relcheck_modules(
            module_a, module_b,
            config=RelcheckConfig(input_bytes=DIFFERENTIAL_BYTES,
                                  searcher=chosen))
            for chosen in ("dfs", searcher)]
        assert self._fingerprint(reports[1]) == self._fingerprint(reports[0])


class TestRelcheckExplorationClass:
    def test_parallel_executor_defines_its_own_run(self):
        """The traced benchmark wraps ``ParallelExecutor.__dict__["run"]``,
        so the class body must define it, and it must be the one loop."""
        assert issubclass(ParallelExecutor, SymbolicExecutor)
        assert "run" in ParallelExecutor.__dict__
        assert ParallelExecutor.__dict__["run"] is SymbolicExecutor.run

    def test_phase_one_runs_through_parallel_executor_run(self, monkeypatch):
        """Relcheck explores its reference module with
        ``ParallelExecutor.run`` exactly once; its replays and the symex
        backend keep the inherited ``SymbolicExecutor.run``."""
        from repro.relcheck import RelcheckConfig, relcheck_workload

        calls = []
        original = ParallelExecutor.run

        def counting_run(self, num_input_bytes):
            calls.append(type(self))
            return original(self, num_input_bytes)

        monkeypatch.setattr(ParallelExecutor, "run", counting_run)
        report = relcheck_workload("buggy_div",
                                   config=RelcheckConfig(input_bytes=2))
        assert calls == [ParallelExecutor]
        assert len(report.verdicts) > 1
        make_backend("symex").verify(
            compile_workload_module("buggy_div"),
            VerificationRequest(symbolic_input_bytes=2))
        assert calls == [ParallelExecutor]

    def test_relcheck_config_accepts_only_one_worker(self):
        from repro.relcheck import RelcheckConfig

        assert RelcheckConfig(workers=1).workers == 1
        for workers in (0, 2, 4):
            with pytest.raises(ValueError, match="workers must be 1"):
                RelcheckConfig(workers=workers)


class TestSharedSolverCaches:
    def _query(self):
        # Not satisfied by the all-zeros assignment, so answering it
        # really takes a search (or a cache crossing), never the implicit
        # zero-model trial.
        x = var(8, "shared_x")
        return [binary(ExprOp.ULT, const(8, 5), x),
                binary(ExprOp.NE, x, const(8, 9))]

    def test_group_result_crosses_workers(self):
        shared = SharedSolverCaches()
        first = Solver(config=SolverConfig(), shared=shared)
        second = Solver(config=SolverConfig(), shared=shared)
        assert first.check_partition(*as_partition(self._query())).satisfiable
        searches_before = second.stats.csp_searches
        assert second.check_partition(*as_partition(self._query())).satisfiable
        # The second worker answered from the shared table: no search.
        assert second.stats.csp_searches == searches_before
        assert second.stats.cache_hits >= 1

    def test_concretization_model_is_cache_independent(self):
        """Address concretization feeds a model back into path structure,
        so its model must not depend on what other queries cached first
        — a differently warmed cache must hand back the same values."""
        x = var(8, "concrete_x")
        group = (binary(ExprOp.ULT, const(8, 3), x),)
        cold = Solver()
        baseline = cold.concretization_model((), [group])
        warm = Solver()
        # Warm the caches with a superset whose model (x=200) also
        # satisfies the group: the reuse layers would return it.
        superset = [binary(ExprOp.ULT, const(8, 3), x),
                    binary(ExprOp.ULT, const(8, 100), x)]
        assert warm.check_partition(*as_partition(superset)).satisfiable
        reused = warm.model_for_partition((), [tuple(superset)])
        assert reused is not None and reused["concrete_x"] > 100
        assert warm.concretization_model((), [group]) == baseline
        # And the memoized second call returns the same object's values.
        assert warm.concretization_model((), [group]) == baseline

    def test_private_solver_unaffected_by_shared(self):
        shared = SharedSolverCaches()
        warm = Solver(shared=shared)
        assert warm.check_partition(*as_partition(self._query())).satisfiable
        cold = Solver()
        before = cold.stats.csp_searches
        assert cold.check_partition(*as_partition(self._query())).satisfiable
        assert cold.stats.csp_searches == before + 1


class TestCowOwnershipInvariants:
    def test_fork_shares_until_first_write(self):
        parent = ExecutionState()
        frame_owner = compile_workload_module("wc")
        function = frame_owner.get_function("main")
        from repro.symex import StackFrame
        frame = StackFrame(function)
        frame.block = function.entry_block
        parent.push_frame(frame)
        parent.frame.bind(1, const(8, 1))
        parent.add_constraint(binary(ExprOp.ULT, var(8, "c"), const(8, 9)))
        child = parent.fork()
        # Shared structure, by reference.
        assert child.frame.values is parent.frame.values
        assert child.memory.bytes is parent.memory.bytes
        assert child._groups == parent._groups
        shared_values = parent.frame.values
        # A write on either side copies first and never mutates the shared
        # dict in place — the invariant that makes cross-thread stealing
        # safe without locks.
        parent.frame.bind(2, const(8, 2))
        assert parent.frame.values is not shared_values
        assert child.frame.values is shared_values
        assert 2 not in child.frame.values
        child.add_constraint(binary(ExprOp.ULT, var(8, "c"), const(8, 5)))
        assert len(parent.constraints) == 1

    def test_state_ids_unique_under_concurrent_forks(self):
        parent = ExecutionState()
        ids = []
        lock = threading.Lock()

        def fork_many():
            local = [ExecutionState().state_id for _ in range(200)]
            with lock:
                ids.extend(local)

        threads = [threading.Thread(target=fork_many) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(ids) == len(set(ids))
        assert parent.state_id not in ids
