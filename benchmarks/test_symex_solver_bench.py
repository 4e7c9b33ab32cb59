"""Benchmarks for the solver hot path.

Three workloads cover the solver's query mixes:

* a **branch-heavy** program forking at four input-dependent branches per
  byte — the classic mix of many small overlapping conjunctions re-asked
  across sibling states (cache floors, branch sharing, UBTree hits);
* a **wide-variable** program whose interesting branches constrain a
  32-bit value from the environment — the mix branch-and-prune must
  decide exactly;
* the Table 1 **wc sweep**, the repo's headline trajectory number, with a
  wall-clock regression floor (asserted only when timing is enabled, so
  CI's ``--benchmark-disable`` smoke stays load-independent) and a
  deterministic assignments floor against the PR 3 entry.

``scripts/bench_record.py`` records the same workloads into
``BENCH_symex.json`` to track the perf trajectory across PRs.
"""

import os
import time

from repro.frontend import compile_to_ir
from repro.pipelines import CompileOptions, OptLevel, compile_source
from repro.symex import Solver, SymexLimits, explore
from repro.workloads import WC_PROGRAM

from conftest import TIMEOUT_SECONDS

BRANCH_HEAVY_PROGRAM = r"""
int main(unsigned char *input, int len) {
    int acc = 0;
    for (int i = 0; i < len; i++) {
        unsigned char c = input[i];
        if (c > 'a') { acc += 1; }
        if (c > 'm') { acc += 2; }
        if (c == 'z') { acc += 4; }
        if ((c & 0x0F) == 3) { acc += 8; }
    }
    if (acc > 6) { return 1; }
    return acc;
}
"""

#: Symbolic input size for the branch-heavy exploration (4^3 leaf shapes).
INPUT_BYTES = 3

#: Fraction of solver queries that must be answered without a CSP search.
CACHE_HIT_RATE_FLOOR = 0.90

#: ``assignments_tried`` of the PR 3 entry in BENCH_symex.json on the
#: branch-heavy workload; the Solver-v2 stack must stay strictly below it.
PR3_BRANCH_HEAVY_ASSIGNMENTS = 5395

#: The wide-variable workload: ``read_value()`` is an unknown external, so
#: the executor havocs it with a fresh 32-bit symbolic variable.  Two of
#: the branches are infeasible under the path condition; the sparse-domain
#: fallback could only answer "maybe satisfiable" and explored them.
WIDE_VALUE_PROGRAM = r"""
int read_value();

int main(unsigned char *input, int len) {
    int n = read_value();
    int hits = 0;
    if (n < 0) { return 0; }
    if (n > 1000000) { return 1; }
    if (n > 2000000) { hits = 1; }      /* infeasible: n <= 1000000 */
    if (n * 2 < 0) { hits = hits + 2; } /* infeasible: 2n <= 2000000 */
    if (input[0] == 'x') { hits = hits + 4; }
    return hits;
}
"""

#: Wall-clock floor for the Table 1 wc sweep (4 symbolic bytes, all four
#: levels); the PR 3 entry recorded 2.006s, the PR 4 entry 1.882s, and the
#: path-count PR dropped it below 0.2s.  The assertion takes the best of
#: two rounds (min-of-N is the standard noise-robust measure) and the
#: floor can be raised via the environment for slower machines.
WC_SWEEP_FLOOR_SECONDS = float(os.environ.get("WC_SWEEP_FLOOR_SECONDS",
                                              "0.75"))
WC_SWEEP_LEVELS = (OptLevel.O0, OptLevel.O2, OptLevel.O3, OptLevel.OVERIFY)
WC_SWEEP_INPUT_BYTES = 4

#: ``assignments_tried`` of the PR 3 entry on the wc sweep at -O0.
PR3_WC_O0_ASSIGNMENTS = 16931

#: Exact wc path counts per level (4 symbolic bytes) after the path-count
#: PR.  The seed explored 1605 paths at -O0/-O1/-O2: branch-free
#: short-circuit lowering collapsed every level to 96, and the -O2/-O3
#: scalar stack (SCCP, load elimination, algebraic simplification) plus a
#: clang-sized ifconvert budget takes the optimizing levels to 26.  The
#: engine is deterministic, so these are equalities, not ceilings; a
#: change in either direction is a trajectory event that must be looked at
#: (and this table re-baselined deliberately).
WC_SWEEP_PATHS = {
    OptLevel.O0: 96,
    OptLevel.O2: 26,
    OptLevel.O3: 26,
    OptLevel.OVERIFY: 4,
}


def _explore(solver=None):
    module = compile_to_ir(BRANCH_HEAVY_PROGRAM)
    return explore(module, INPUT_BYTES,
                   limits=SymexLimits(timeout_seconds=TIMEOUT_SECONDS),
                   solver=solver)


def test_branch_heavy_exploration_time(benchmark):
    """Wall-clock of the full exploration with the optimized solver."""
    report = benchmark(_explore)
    stats = report.solver_stats
    benchmark.extra_info["paths"] = report.stats.total_paths
    benchmark.extra_info["queries"] = stats.queries
    benchmark.extra_info["csp_searches"] = stats.csp_searches
    benchmark.extra_info["assignments_tried"] = stats.assignments_tried

    assert report.stats.total_paths >= 100
    # Cache-hit-rate floor: queries decided without launching a CSP search.
    hit_rate = 1.0 - stats.csp_searches / max(1, stats.queries)
    assert hit_rate >= CACHE_HIT_RATE_FLOOR, \
        f"solver cache hit rate {hit_rate:.2%} below floor"
    assert stats.cache_hits > 0
    assert stats.model_cache_hits > 0


def test_optimized_solver_does_strictly_less_work_than_naive():
    """The caching/independence/model-reuse stack must strictly reduce both
    queries-per-branch and tried assignments against a naive configuration
    exploring the same program."""
    optimized_report = _explore()
    naive_report = _explore(
        solver=Solver(enable_cache=False, enable_independence=False))

    # Identical exploration results first: same paths, same branches.
    assert optimized_report.stats.total_paths == \
        naive_report.stats.total_paths
    assert optimized_report.stats.branches_encountered == \
        naive_report.stats.branches_encountered

    optimized = optimized_report.solver_stats
    naive = naive_report.solver_stats
    assert optimized.assignments_tried < naive.assignments_tried
    assert optimized.csp_searches < naive.csp_searches

    # Branch sharing: strictly fewer than one query per branch on average
    # (the seed engine issued ~1.13 on this workload).
    branches = optimized_report.stats.branches_encountered
    assert optimized.queries / branches < 1.0
    assert optimized.branch_sides_free > 0


def test_ubtree_index_carries_the_counterexample_cache():
    """The UBTree index must answer a real share of the branch-heavy group
    queries and do strictly less search work than the PR 3 linear-scan
    entry recorded in BENCH_symex.json."""
    report = _explore()
    stats = report.solver_stats
    assert stats.ubtree_hits > 0
    assert stats.model_cache_hits > 0
    assert stats.assignments_tried < PR3_BRANCH_HEAVY_ASSIGNMENTS


def test_branch_and_prune_makes_wide_queries_exact(benchmark):
    """Wide-variable explorations must report exact answers (no
    ``unknown_results``) and prune the infeasible branches."""
    module = compile_to_ir(WIDE_VALUE_PROGRAM)

    def run():
        return explore(module, 2,
                       limits=SymexLimits(timeout_seconds=TIMEOUT_SECONDS))

    report = benchmark(run)
    stats = report.solver_stats
    benchmark.extra_info["paths"] = report.stats.total_paths
    benchmark.extra_info["prune_splits"] = stats.prune_splits
    assert stats.unknown_results == 0, "wide queries must be exact"
    assert stats.prune_splits > 0
    # The two infeasible branches are pruned: only the four feasible
    # outcomes (early exits plus the input[0] fork) remain.
    assert report.stats.total_paths == 4
    assert {p.return_value for p in report.paths} == {0, 1, 4}


def test_wc_sweep_regression_floor(benchmark):
    """The Table 1 sweep must hold the trajectory floors: the exact
    per-level path counts of ``WC_SWEEP_PATHS``, wall clock no worse than
    the recorded floor (timing asserted only when the benchmark actually
    times, so smoke runs stay load-independent), and strictly fewer
    assignments than the PR 3 entry at -O0."""
    modules = {
        level: compile_source(WC_PROGRAM,
                              CompileOptions(level=level)).module
        for level in WC_SWEEP_LEVELS
    }

    def sweep():
        seconds = 0.0
        reports = {}
        for level, module in modules.items():
            start = time.perf_counter()
            reports[level] = explore(
                module, WC_SWEEP_INPUT_BYTES,
                limits=SymexLimits(timeout_seconds=TIMEOUT_SECONDS))
            seconds += time.perf_counter() - start
        return seconds, reports

    seconds, reports = benchmark.pedantic(sweep, rounds=1, iterations=1)
    timings = [seconds]
    if benchmark.enabled:  # a second round so a load spike cannot flake
        seconds, reports = sweep()
        timings.append(seconds)
    best = min(timings)
    o0 = reports[OptLevel.O0].solver_stats
    benchmark.extra_info["sweep_seconds"] = round(best, 3)
    benchmark.extra_info["o0_assignments_tried"] = o0.assignments_tried
    assert o0.assignments_tried < PR3_WC_O0_ASSIGNMENTS
    for level in WC_SWEEP_LEVELS:
        assert reports[level].stats.total_paths == WC_SWEEP_PATHS[level], \
            f"{level}: {reports[level].stats.total_paths} paths " \
            f"(expected {WC_SWEEP_PATHS[level]}; seed was 1605 at -O0)"
        # The paper's safety property: optimizing for paths must not lose
        # bugs.  wc is bug-free, so every level's signature set is empty.
        assert reports[level].bug_signatures() == \
            reports[OptLevel.O0].bug_signatures()
    if benchmark.enabled:
        assert best <= WC_SWEEP_FLOOR_SECONDS, \
            f"wc sweep took {best:.3f}s best-of-{len(timings)} " \
            f"(floor {WC_SWEEP_FLOOR_SECONDS}s)"
