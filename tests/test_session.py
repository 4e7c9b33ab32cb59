"""Tests for :class:`repro.pipelines.CompilerSession`: front-end caching,
the running analysis-stats total, and that a session pins no compiled
module."""

import gc
import weakref
from collections import Counter

import pytest

from repro.ir.printer import print_module
from repro.pipelines import (
    CompileOptions, CompilerSession, OptLevel, compile_source,
)
from repro.workloads import get_workload

SWEEP_LEVELS = [OptLevel.O0, OptLevel.O2, OptLevel.O3, OptLevel.OVERIFY]


@pytest.fixture(scope="module")
def wc_source():
    return get_workload("wc").source


class TestOptionsAreNotMutated:
    def test_level_shortcut_does_not_alias(self, wc_source):
        options = CompileOptions()
        result = compile_source(wc_source, options, level=OptLevel.O2)
        assert result.level is OptLevel.O2
        assert options.level is OptLevel.O0

    def test_session_compile_does_not_mutate(self, wc_source):
        options = CompileOptions(level=OptLevel.O1)
        session = CompilerSession()
        session.compile(wc_source, options, level=OptLevel.O3)
        assert options.level is OptLevel.O1


class TestSessionCorrectness:
    @pytest.mark.parametrize("name", [
        "wc", "tr", "uniq", "basename", "factor",
        "fuzz-jump-thread-loop-phi",
    ])
    def test_session_ir_identical_to_cold_compiles(self, name):
        source = get_workload(name).source
        session = CompilerSession()
        for level in SWEEP_LEVELS:
            warm = session.compile(source, level=level)
            cold = compile_source(source, level=level)
            assert print_module(warm.module) == print_module(cold.module), \
                f"session compile of {name} diverged at {level}"

    def test_repeated_compile_is_deterministic(self, wc_source):
        session = CompilerSession()
        first = session.compile(wc_source, level=OptLevel.OVERIFY)
        second = session.compile(wc_source, level=OptLevel.OVERIFY)
        assert print_module(first.module) == print_module(second.module)


class TestSessionSharing:
    def test_frontend_is_reused_across_levels(self, wc_source):
        session = CompilerSession()
        for level in SWEEP_LEVELS:
            session.compile(wc_source, level=level)
        # Two linked sources exist (execution libc vs verification libc);
        # four compiles must not parse more than twice.
        assert session.stats.frontend_parses == 2
        assert session.stats.frontend_reuses == 2
        assert session.stats.compiles == 4

    def test_compile_at_levels_uses_one_session(self, wc_source):
        session = CompilerSession()
        results = session.compile_at_levels(wc_source, levels=SWEEP_LEVELS)
        assert set(results) == set(SWEEP_LEVELS)
        assert {level: result.level for level, result in results.items()} \
            == {level: level for level in SWEEP_LEVELS}
        assert session.stats.compiles == 4
        assert session.stats.frontend_parses == 2

    def test_analysis_stats_is_the_sum_of_the_results(self, wc_source):
        session = CompilerSession()
        results = [session.compile(wc_source, level=level)
                   for level in SWEEP_LEVELS]
        stats = [result.analysis_stats for result in results]
        total = session.analysis_stats
        assert total.hits == sum(s.hits for s in stats) > 0
        assert total.misses == sum(s.misses for s in stats) > 0
        assert total.invalidations == sum(s.invalidations for s in stats)
        assert Counter(total.hits_by_analysis) == \
            sum((Counter(s.hits_by_analysis) for s in stats), Counter())
        assert Counter(total.misses_by_analysis) == \
            sum((Counter(s.misses_by_analysis) for s in stats), Counter())
        # The longest pipeline, -OVERIFY's, both fills and reuses its cache.
        overify = stats[SWEEP_LEVELS.index(OptLevel.OVERIFY)]
        assert overify.hits > 0 and overify.misses > 0

    def test_pipeline_text_is_reported(self, wc_source):
        session = CompilerSession()
        result = session.compile(wc_source, level=OptLevel.O0)
        assert result.pipeline_text == "simplifycfg"


class TestSessionRetention:
    def test_result_module_dies_with_result(self, wc_source):
        """The session caches parsed units only: once the caller drops a
        result, its module (and the analysis cache built over it) can be
        collected."""
        session = CompilerSession()
        modules = []
        for level in SWEEP_LEVELS:
            result = session.compile(wc_source, level=level)
            modules.append(weakref.ref(result.module))
        del result
        gc.collect()
        assert [ref() for ref in modules] == [None] * len(modules)
        assert session.stats.compiles == len(modules)
