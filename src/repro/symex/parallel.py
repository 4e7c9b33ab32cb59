"""Parallel path exploration: a worker pool draining the searcher frontier.

-OVERIFY's program is to drive verification lag down like compile time;
after the solver became cache-dominated, single-threaded exploration is the
remaining wall-clock bottleneck.  The ingredients the sequential engine
already has make a worker pool a composition exercise rather than a
rewrite:

* **states are copy-on-write** and owned by exactly one worker at a time,
  so workers never synchronize on a state (see :mod:`repro.symex.state`);
* **the solver caches are the only shared mutable structure**, and they
  shard by constraint-group fingerprint into lock stripes
  (:class:`~repro.symex.solver.SharedSolverCaches`) — the same group
  always lands on the same stripe, so results cross between workers;
* the frontier becomes a :class:`~repro.symex.searcher.WorkStealingFrontier`
  (per-worker DFS stacks, steal-the-shallowest), and every worker runs a
  private :class:`~repro.symex.executor.SymbolicExecutor` engine over the
  shared module and globals.

**Threads.**  Workers are threads: state stepping is pure-Python and the
CPython GIL serializes it, but cache hits are cheap, nothing is copied,
and on free-threaded builds (or for any future GIL-releasing solver
kernel) the same code scales with cores.

**Determinism.**  Exhaustive exploration visits a schedule-independent
path set as long as the solver's influence on control flow is
deterministic.  Satisfiability *answers* are (caches only return answers
an uncached search would also reach); cached *models* are not — which
model answers a query depends on what some other query cached first.
The one place a model feeds back into control flow, address
concretization, therefore uses
:meth:`~repro.symex.solver.Solver.concretization_model`, a fresh
deterministic per-group search memoized by group content.  Worker count
and scheduling then cannot change path counts, bug signatures, error
counts, or interpreted instructions; they *can* change which worker finds
what and which cached model witnesses a path record's test input.  The
merged report is made order-independent: per-worker stats merge by
summation, paths are sorted by content, and bug reports are deduplicated
by signature.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..faults import WorkerCrash, site as _fault_site
from ..ir import Module
from .executor import (
    BugReport, ExplorationBudget, PathRecord, SymbolicExecutor, SymexLimits,
    SymexReport, SymexStats,
)
from .searcher import Searcher, WorkStealingFrontier
from .solver import SharedSolverCaches, Solver, SolverConfig, SolverStats
from .state import ExecutionState, StateStatus

#: Fault site hit once per frontier pop, before the state is stepped;
#: raises :class:`~repro.faults.WorkerCrash`, handled by the pool's
#: retry-once recovery (``docs/robustness.md``).
_WORKER_RUN = _fault_site("worker.run", WorkerCrash)


class _SwitchIntervalGuard:
    """Refcounted coarsening of the interpreter's thread switch interval.

    ``sys.setswitchinterval`` is process-global: two overlapping pools
    naively saving/restoring would race and could leave the coarse value
    behind permanently.  The guard coarsens on the first concurrent
    enter, restores the original on the last exit."""

    def __init__(self, interval: float) -> None:
        self._interval = interval
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0.0

    def __enter__(self) -> None:
        with self._lock:
            self._depth += 1
            if self._depth == 1:
                self._saved = sys.getswitchinterval()
                sys.setswitchinterval(self._interval)

    def __exit__(self, *exc: object) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                sys.setswitchinterval(self._saved)


#: On a GIL build the workers are CPU-bound peers: the default 5 ms switch
#: interval makes them trade the GIL thousands of times per second for
#: nothing.  Blocked workers are woken by the frontier's condition
#: variable, not by GIL switches, so responsiveness is unharmed.
_COARSE_SWITCHING = _SwitchIntervalGuard(0.05)


class _FrontierView(Searcher):
    """Adapter binding one worker's engine to the shared frontier: the
    engine's fork handler calls ``searcher.add``, which must land on the
    forking worker's own deque."""

    def __init__(self, frontier: WorkStealingFrontier, worker: int) -> None:
        self._frontier = frontier
        self._worker = worker

    def add(self, state: ExecutionState) -> None:
        self._frontier.add(state, self._worker)

    def __len__(self) -> int:
        return len(self._frontier)

    def pop(self) -> ExecutionState:  # pragma: no cover - workers pop
        raise NotImplementedError(   # from the frontier directly
            "worker engines pop from the frontier, not the view")


def _path_sort_key(record: PathRecord) -> tuple:
    """Content-based ordering: identical path sets sort identically
    whatever worker count or schedule produced them (state ids are
    scheduling artifacts and deliberately excluded)."""
    return (record.status.value,
            record.instructions,
            record.constraint_count,
            record.test_input is None,
            record.test_input or b"",
            record.return_value is None,
            record.return_value or 0)


def _merge_reports(stats: SymexStats, solver_stats: SolverStats,
                   reports: Sequence[SymexReport]) -> SymexReport:
    """Deterministic union of per-worker reports: paths sorted by content,
    bugs deduplicated by signature (first per signature in signature
    order), so the output is independent of worker count and schedule."""
    merged = SymexReport(stats=stats, solver_stats=solver_stats)
    paths: List[PathRecord] = []
    bugs: List[BugReport] = []
    for report in reports:
        paths.extend(report.paths)
        bugs.extend(report.bugs)
    merged.paths = sorted(paths, key=_path_sort_key)
    by_signature: Dict[tuple, BugReport] = {}
    for bug in sorted(bugs, key=lambda b: (b.signature(), b.message,
                                           b.test_input is None,
                                           b.test_input or b"")):
        by_signature.setdefault(bug.signature(), bug)
    merged.bugs = [by_signature[signature]
                   for signature in sorted(by_signature)]
    diagnostics: List[str] = []
    for report in reports:
        diagnostics.extend(report.diagnostics)
    merged.diagnostics = sorted(set(diagnostics))
    return merged


class ParallelExecutor:
    """Explores a module's entry function with a pool of workers.

    Mirrors :class:`~repro.symex.executor.SymbolicExecutor`'s ``run`` API
    and report shape; ``workers=1`` runs the same machinery inline on the
    calling thread (no pool), which the determinism tests use as the
    reference point.
    """

    def __init__(self, module: Module, entry: str = "main",
                 searcher: str = "dfs", workers: int = 4,
                 solver_config: Optional[SolverConfig] = None,
                 limits: Optional[SymexLimits] = None,
                 shared_caches: Optional[SharedSolverCaches] = None,
                 state_sink: Optional[Callable[[ExecutionState], None]]
                 = None,
                 fact_pruning: bool = False) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if searcher not in ("dfs", "bfs", "random"):
            raise ValueError(f"unknown search strategy '{searcher}'")
        self.module = module
        self.entry = entry
        self.searcher = searcher
        self.workers = workers
        self.solver_config = solver_config or SolverConfig()
        self.limits = limits or SymexLimits()
        #: Caller-provided solver caches (the verification service injects
        #: one set shared across jobs, possibly primed from a persistent
        #: store).  Must be built with ``locked=True`` when ``workers > 1``.
        #: ``None``: the run builds its own, one stripe per worker.
        self.shared_caches = shared_caches
        #: Observer handed every finished state, forwarded to each worker
        #: engine (see :class:`SymbolicExecutor`).  Called concurrently
        #: from worker threads — the callback must synchronize itself.
        self.state_sink = state_sink
        #: Forwarded to each worker engine (see :class:`SymbolicExecutor`):
        #: refute conservative fork conditions against unary facts before
        #: forking.  Content-deterministic, so the determinism contract is
        #: unaffected.
        self.fact_pruning = fact_pruning

    def run(self, num_input_bytes: int) -> SymexReport:
        """Explore exhaustively and return the merged report."""
        workers = self.workers
        config = self.solver_config
        shared = self.shared_caches or SharedSolverCaches(
            num_stripes=workers, locked=workers > 1)
        frontier = WorkStealingFrontier(workers, mode=self.searcher)
        # Worker 0 doubles as the bootstrap engine: it builds the globals
        # and the initial state; the other engines share both read-only.
        stats_list = [SymexStats(states_created=1 if index == 0 else 0)
                      for index in range(workers)]
        budget = ExplorationBudget(self.limits, stats_list)
        engines: List[SymbolicExecutor] = [SymbolicExecutor(
            self.module, entry=self.entry,
            searcher=_FrontierView(frontier, 0),
            solver=Solver(config=config, shared=shared),
            limits=self.limits, stats=stats_list[0], budget=budget,
            state_sink=self.state_sink,
            fact_pruning=self.fact_pruning)]
        # The bootstrap populates its globals map and input-variable list;
        # build the sibling engines only afterwards so they share the
        # populated objects (make_initial_state rebinds them).
        initial = engines[0].make_initial_state(num_input_bytes)
        for index in range(1, workers):
            engines.append(SymbolicExecutor(
                self.module, entry=self.entry,
                searcher=_FrontierView(frontier, index),
                solver=Solver(config=config, shared=shared),
                limits=self.limits, stats=stats_list[index], budget=budget,
                globals_map=engines[0]._globals,
                input_variables=engines[0]._input_variables,
                state_sink=self.state_sink,
                fact_pruning=self.fact_pruning))
        frontier.add(initial, 0)

        failures: List[BaseException] = []
        #: Retry-once worker recovery, enabled only while the worker.run
        #: fault site is armed: an unarmed run pays nothing (no snapshot
        #: fork per pop) and behaves exactly as before.
        recovery = _WORKER_RUN.armed

        def worker_loop(index: int) -> None:
            engine = engines[index]
            while True:
                state = frontier.pop(index)
                if state is None:
                    return
                backup = None
                try:
                    try:
                        if engine._out_of_budget():
                            state.status = StateStatus.TERMINATED
                            engine.stats.paths_terminated += 1
                        else:
                            # A stolen state books its equality rewrites to
                            # the thief's counters — never another thread's.
                            state.attach_stats(engine.solver.stats)
                            if recovery:
                                backup = state.fork()
                            if _WORKER_RUN.armed:
                                _WORKER_RUN.fire()
                            engine._run_state(state)
                    except WorkerCrash as crash:
                        # The worker is lost, not the run.  The crash fires
                        # *before* the state is stepped (mid-state failures
                        # are engine-error containment, not crashes), so
                        # the pristine snapshot can be re-queued for a
                        # sibling without double-counting any path work.
                        if backup is not None and state.retries < 1:
                            backup.retries = state.retries + 1
                            frontier.add(backup, index)
                        else:
                            state.status = StateStatus.TERMINATED
                            engine.stats.paths_terminated += 1
                            engine.report.diagnostics.append(
                                f"worker crash at "
                                f"{crash.site or 'worker.run'} "
                                f"not retried: {crash}")
                        frontier.retire(index)
                        return
                    except BaseException as exc:  # noqa: BLE001 - re-raised
                        failures.append(exc)
                        frontier.drain()
                        return
                finally:
                    frontier.task_done(index)

        if workers == 1:
            worker_loop(0)
        else:
            threads = [threading.Thread(target=worker_loop, args=(index,),
                                        name=f"symex-worker-{index}")
                       for index in range(workers)]
            with _COARSE_SWITCHING:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        if failures:
            raise failures[0]

        # With every worker retired (crash-path degradation), pending
        # states have nobody left to run them: account each as terminated,
        # like budget-exhaustion leftovers.
        leftovers = frontier.drain() if frontier.live_workers == 0 else []
        for state in leftovers:
            state.status = StateStatus.TERMINATED
            stats_list[0].paths_terminated += 1

        merged_stats = SymexStats(states_created=0)
        for stats in stats_list:
            merged_stats.merge(stats)
        if leftovers and not merged_stats.termination_reason:
            merged_stats.termination_reason = "worker-loss"
        merged_stats.max_live_states = max(merged_stats.max_live_states,
                                           frontier.high_water)
        merged_stats.wall_seconds = time.perf_counter() - budget.start_time
        merged_solver_stats = SolverStats()
        for engine in engines:
            merged_solver_stats.merge(engine.solver.stats)
        return _merge_reports(merged_stats, merged_solver_stats,
                              [engine.report for engine in engines])


def explore_parallel(module: Module, num_input_bytes: int,
                     entry: str = "main", searcher: str = "dfs",
                     workers: int = 4,
                     solver_config: Optional[SolverConfig] = None,
                     limits: Optional[SymexLimits] = None) -> SymexReport:
    """Convenience wrapper mirroring :func:`repro.symex.executor.explore`."""
    executor = ParallelExecutor(module, entry=entry, searcher=searcher,
                                workers=workers, solver_config=solver_config,
                                limits=limits)
    return executor.run(num_input_bytes)
