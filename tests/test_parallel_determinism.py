"""The parallel executor's contract: worker count must not change results.

Exhaustive exploration visits a schedule-independent path set whenever the
solver's answers are deterministic, so ``workers=4`` has to reproduce the
``workers=1`` run exactly — same bug signatures, same path counts, same
interpreted instructions, same Table 1 verification outcomes — across the
workloads and both frontier disciplines.  The remaining tests pin down the
machinery the differential relies on: the work-stealing frontier's
discipline and termination, the lock-striped shared solver caches, and
the COW ownership invariants under forking.
"""

import threading

import pytest

from repro.pipelines import CompileOptions, OptLevel, compile_source
from repro.symex import (
    ExecutionState, ParallelExecutor, SharedSolverCaches, Solver,
    SolverConfig, SymexLimits, WorkStealingFrontier, binary, const, explore,
    explore_parallel, var,
)
from repro.symex.expr import ExprOp
from repro.verification import VerificationRequest, make_backend
from repro.workloads import get_workload

from conftest import compile_workload_module

LIMITS_KW = dict(timeout_seconds=120.0)

#: Workloads for the differential: the headline kernel, a branchier text
#: filter, and the two seeded-bug programs (several error paths each, so
#: signature dedup is exercised, not just path counting).
DIFFERENTIAL_WORKLOADS = ["wc", "uniq", "buggy_div", "buggy_index"]
DIFFERENTIAL_BYTES = 3


def _outcome_fingerprint(report):
    """Everything about a run that must be identical whatever the worker
    count: path counts by status, instructions, and the bug-signature
    set.  Timings, state ids, cache-hit counters and model-dependent test
    inputs are legitimately schedule-dependent and deliberately
    excluded."""
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


class TestWorkerCountDeterminism:
    @pytest.mark.parametrize("name", DIFFERENTIAL_WORKLOADS)
    @pytest.mark.parametrize("searcher", ["dfs", "bfs"])
    def test_workers_4_matches_workers_1(self, name, searcher):
        module = compile_workload_module(name)
        runs = {
            workers: explore_parallel(
                module, DIFFERENTIAL_BYTES, searcher=searcher,
                workers=workers, limits=SymexLimits(**LIMITS_KW))
            for workers in (1, 4)
        }
        assert _outcome_fingerprint(runs[1]) == _outcome_fingerprint(runs[4])

    def test_workers_1_matches_sequential_executor(self):
        module = compile_workload_module("wc")
        sequential = explore(module, DIFFERENTIAL_BYTES,
                             limits=SymexLimits(**LIMITS_KW))
        parallel = explore_parallel(module, DIFFERENTIAL_BYTES, workers=1,
                                    limits=SymexLimits(**LIMITS_KW))
        assert _outcome_fingerprint(sequential) == \
            _outcome_fingerprint(parallel)

    @pytest.mark.parametrize("name", ["wc", "buggy_div"])
    def test_thread_pool_matches_sequential_executor(self, name):
        """Several workers against the plain sequential engine, on a deep
        frontier (wc) and one the first worker mostly finishes alone
        (buggy_div): the pool shares states instead of reconstructing
        them, so every work counter matches, not just the path set."""
        module = compile_workload_module(name)
        sequential = explore(module, DIFFERENTIAL_BYTES,
                             limits=SymexLimits(**LIMITS_KW))
        pooled = explore_parallel(module, DIFFERENTIAL_BYTES, workers=2,
                                  limits=SymexLimits(**LIMITS_KW))
        assert _outcome_fingerprint(sequential) == \
            _outcome_fingerprint(pooled)

    def test_merged_report_is_content_ordered(self):
        """Path records come back sorted by content and bug reports deduped
        by signature, so the report is reproducible across schedules."""
        module = compile_workload_module("buggy_div")
        report = explore_parallel(module, DIFFERENTIAL_BYTES, workers=4,
                                  limits=SymexLimits(**LIMITS_KW))
        keys = [(p.status.value, p.instructions, p.constraint_count)
                for p in report.paths]
        assert keys == sorted(keys)
        signatures = [bug.signature() for bug in report.bugs]
        assert len(signatures) == len(set(signatures))
        assert signatures == sorted(signatures)
        # Dedup may not lose any signature found on the error paths.
        assert set(signatures) == report.bug_signatures()

    def test_random_searcher_same_path_set(self):
        """The random discipline shapes order only: exhaustive exploration
        still visits exactly the same paths."""
        module = compile_workload_module("wc")
        baseline = explore_parallel(module, DIFFERENTIAL_BYTES, workers=1,
                                    limits=SymexLimits(**LIMITS_KW))
        randomized = explore_parallel(module, DIFFERENTIAL_BYTES,
                                      searcher="random", workers=4,
                                      limits=SymexLimits(**LIMITS_KW))
        assert _outcome_fingerprint(baseline) == \
            _outcome_fingerprint(randomized)


class TestRelcheckDeterminism:
    """Relcheck inherits the executor's contract: ``workers`` parallelizes
    the A exploration and the per-path replays but may not change a single
    verdict, counterexample, or counter."""

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

    @pytest.mark.parametrize("name", ["wc", "buggy_div"])
    def test_workers_4_matches_workers_1(self, name):
        from repro.relcheck import RelcheckConfig, relcheck_workload

        runs = {
            workers: relcheck_workload(
                name, config=RelcheckConfig(input_bytes=DIFFERENTIAL_BYTES,
                                            workers=workers))
            for workers in (1, 4)
        }
        assert runs[1].clean and runs[4].clean
        assert self._fingerprint(runs[1]) == self._fingerprint(runs[4])

    def test_divergence_counterexamples_are_worker_independent(self):
        """The divergent case too: a planted miscompile must yield the
        same divergence kinds *and the same concrete counterexamples*
        whatever the worker count."""
        from repro.frontend import compile_to_ir
        from repro.pipelines import build_pipeline_from_text
        from repro.relcheck import RelcheckConfig, relcheck_modules

        source = """
        int main(unsigned char *input, int len) {
            int t = 100 / input[0];
            return 7;
        }
        """
        module_a = compile_to_ir(source)
        module_b = compile_to_ir(source)
        build_pipeline_from_text("mem2reg,dce<unsafe-traps>").run(module_b)
        runs = {
            workers: relcheck_modules(
                module_a, module_b, pair=("-O0", "-Obroken"),
                config=RelcheckConfig(input_bytes=1, workers=workers))
            for workers in (1, 4)
        }
        assert not runs[1].clean
        assert self._fingerprint(runs[1]) == self._fingerprint(runs[4])


class TestTable1Outcomes:
    def test_backend_outcomes_match_across_worker_counts(self):
        """The Table 1 ingredients (paths, instructions, errors, bug
        signatures) agree between ``symex`` and ``symex<workers=4>`` on an
        optimized and an unoptimized build."""
        for level in (OptLevel.O0, OptLevel.OVERIFY):
            compiled = compile_source(
                get_workload("buggy_index").source,
                CompileOptions(level=level))
            request = VerificationRequest(
                symbolic_input_bytes=DIFFERENTIAL_BYTES,
                timeout_seconds=120.0)
            single = make_backend("symex").verify(compiled.module, request)
            pooled = make_backend("symex<workers=4>").verify(
                compiled.module, request)
            assert pooled.paths == single.paths
            assert pooled.errors == single.errors
            assert pooled.bug_signatures == single.bug_signatures
            assert pooled.timed_out == single.timed_out
            # Thread workers replay nothing, so even the raw interpreted
            # instruction counts must agree.
            assert pooled.instructions == single.instructions


class TestWorkStealingFrontier:
    def _states(self, count):
        return [ExecutionState() for _ in range(count)]

    def test_dfs_pops_own_newest(self):
        frontier = WorkStealingFrontier(2, mode="dfs")
        a, b = self._states(2)
        frontier.add(a, 0)
        frontier.add(b, 0)
        assert frontier.pop(0) is b
        frontier.task_done(0)

    def test_bfs_pops_own_oldest(self):
        frontier = WorkStealingFrontier(2, mode="bfs")
        a, b = self._states(2)
        frontier.add(a, 0)
        frontier.add(b, 0)
        assert frontier.pop(0) is a
        frontier.task_done(0)

    def test_steal_takes_victims_oldest(self):
        frontier = WorkStealingFrontier(2, mode="dfs")
        a, b = self._states(2)
        frontier.add(a, 0)
        frontier.add(b, 0)
        # Worker 1 has nothing: it steals worker 0's oldest (the
        # shallowest fork, i.e. the largest unexplored subtree).
        assert frontier.pop(1) is a
        frontier.task_done(1)

    def test_pop_returns_none_when_empty_and_idle(self):
        frontier = WorkStealingFrontier(2)
        assert frontier.pop(0) is None

    def test_pop_blocks_until_active_worker_forks_or_finishes(self):
        frontier = WorkStealingFrontier(2)
        seed, child = self._states(2)
        frontier.add(seed, 0)
        assert frontier.pop(0) is seed
        results = []

        def second_worker():
            results.append(frontier.pop(1))
            if results[0] is not None:
                frontier.task_done(1)

        thread = threading.Thread(target=second_worker)
        thread.start()
        # Worker 0 is mid-state: worker 1 must wait, not terminate.
        thread.join(timeout=0.2)
        assert thread.is_alive()
        frontier.add(child, 0)  # worker 0 forks
        frontier.task_done(0)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert results == [child]
        assert frontier.pop(0) is None

    def test_drain_empties_every_deque(self):
        frontier = WorkStealingFrontier(3)
        states = self._states(5)
        for index, state in enumerate(states):
            frontier.add(state, index % 3)
        assert set(frontier.drain()) == set(states)
        assert len(frontier) == 0
        assert frontier.pop(0) is None

    def test_high_water_tracks_peak_live_states(self):
        frontier = WorkStealingFrontier(1)
        states = self._states(3)
        for state in states:
            frontier.add(state, 0)
        assert frontier.high_water == 3


class TestSharedSolverCaches:
    def _query(self):
        # Not satisfied by the all-zeros assignment, so answering it
        # really takes a search (or a cache crossing), never the implicit
        # zero-model trial.
        x = var(8, "shared_x")
        return [binary(ExprOp.ULT, const(8, 5), x),
                binary(ExprOp.NE, x, const(8, 9))]

    def test_group_result_crosses_workers(self):
        shared = SharedSolverCaches(num_stripes=4)
        first = Solver(config=SolverConfig(), shared=shared)
        second = Solver(config=SolverConfig(), shared=shared)
        assert first.check(self._query()).satisfiable
        searches_before = second.stats.csp_searches
        assert second.check(self._query()).satisfiable
        # The second worker answered from the shared stripe: no search.
        assert second.stats.csp_searches == searches_before
        assert second.stats.cache_hits >= 1

    def test_same_group_same_stripe(self):
        shared = SharedSolverCaches(num_stripes=4)
        key = frozenset(self._query())
        assert shared.stripe_for(key) is shared.stripe_for(frozenset(
            self._query()))

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
        assert warm.check(superset).satisfiable
        reused = warm.model_for_partition((), [tuple(superset)])
        assert reused is not None and reused["concrete_x"] > 100
        assert warm.concretization_model((), [group]) == baseline
        # And the memoized second call returns the same object's values.
        assert warm.concretization_model((), [group]) == baseline

    def test_private_solver_unaffected_by_shared(self):
        shared = SharedSolverCaches(num_stripes=2)
        warm = Solver(shared=shared)
        assert warm.check(self._query()).satisfiable
        cold = Solver()
        before = cold.stats.csp_searches
        assert cold.check(self._query()).satisfiable
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


class TestBackendWorkersSpec:
    def test_workers_spec_round_trip(self):
        backend = make_backend("symex<workers=4>")
        assert backend.describe() == "symex<workers=4>"
        assert make_backend("symex<workers=1>").describe() == "symex"

    def test_invalid_workers_rejected(self):
        from repro.verification import BackendSpecError
        with pytest.raises(BackendSpecError):
            make_backend("symex<workers=0>")
        with pytest.raises(BackendSpecError):
            make_backend("symex<workers=nope>")

    def test_parallel_flags_compose(self):
        backend = make_backend(
            "symex<workers=4,searcher=bfs,rewrite-equalities=off>")
        assert backend.workers == 4
        assert backend.searcher == "bfs"
        assert backend.solver_config.rewrite_equalities is False
