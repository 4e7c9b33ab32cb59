"""Benchmark: sessioned vs. unsessioned multi-level compilation.

A CompilerSession targets exactly the shape of the paper's Table 1/3
experiments — the same source compiled at every level.  A shared session
parses and analyses each linked source once instead of once per level, so
the sessioned sweep should trend faster than four independent compiles.
Both sweeps run the same pipelines with per-compile analysis caches.

Run with:  python -m pytest benchmarks/test_session_bench.py --benchmark-only
"""

import pytest

from repro.pipelines import (
    CompilerSession, OptLevel, compile_at_all_levels, compile_source,
)
from repro.workloads import all_workloads

SWEEP_LEVELS = [OptLevel.O0, OptLevel.O2, OptLevel.O3, OptLevel.OVERIFY]


def _largest_workload():
    return max(all_workloads(), key=lambda w: len(w.source))


def test_all_levels_unsessioned(benchmark):
    """Baseline: four independent cold compiles (no shared state)."""
    workload = _largest_workload()
    stats = []

    def sweep():
        results = {level: compile_source(workload.source, level=level)
                   for level in SWEEP_LEVELS}
        stats.append(results)
        return results

    benchmark.pedantic(sweep, rounds=3, warmup_rounds=1)
    results = stats[-1]
    hits = sum(r.analysis_stats.hits for r in results.values())
    misses = sum(r.analysis_stats.misses for r in results.values())
    benchmark.extra_info["workload"] = workload.name
    benchmark.extra_info["analysis_hit_rate"] = round(hits / (hits + misses), 4)


def test_all_levels_sessioned(benchmark):
    """The same sweep through one CompilerSession per round."""
    workload = _largest_workload()
    sessions = []

    def sweep():
        session = CompilerSession()
        results = compile_at_all_levels(workload.source, levels=SWEEP_LEVELS,
                                        session=session)
        sessions.append(session)
        return results

    benchmark.pedantic(sweep, rounds=3, warmup_rounds=1)
    session = sessions[-1]
    aggregate = session.analysis_stats
    benchmark.extra_info["workload"] = workload.name
    benchmark.extra_info["analysis_hit_rate"] = round(aggregate.hit_rate, 4)
    benchmark.extra_info["frontend_reuses"] = session.stats.frontend_reuses
    assert session.stats.frontend_reuses > 0
