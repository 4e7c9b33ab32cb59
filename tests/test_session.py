"""Tests for :class:`repro.pipelines.CompilerSession`: front-end caching,
the running analysis-stats total, that a session pins no compiled
module, and that its table of analysed units is bounded."""

import gc
import weakref
from collections import Counter

import pytest

from repro.ir.printer import print_module
from repro.pipelines import (
    CompileOptions, CompilerSession, OptLevel, compile_source,
)
from repro.pipelines.session import MAX_SESSION_UNITS
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
        # One program text, analysed once against the library API both
        # libc variants share, serves all four compiles.
        assert session.stats.frontend_parses == 1
        assert session.stats.frontend_reuses == 3
        assert session.stats.compiles == 4

    def test_compile_at_levels_uses_one_session(self, wc_source):
        session = CompilerSession()
        results = session.compile_at_levels(wc_source, levels=SWEEP_LEVELS)
        assert set(results) == set(SWEEP_LEVELS)
        assert {level: result.level for level, result in results.items()} \
            == {level: level for level in SWEEP_LEVELS}
        assert session.stats.compiles == 4
        assert session.stats.frontend_parses == 1

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

    def test_units_are_bounded_least_recently_used_first(self):
        """A session keeps at most ``MAX_SESSION_UNITS`` analysed program
        units, evicting the least recently used; an evicted text is
        analysed again into a byte-identical module."""
        sources = [f"int main(unsigned char *input, int len) "
                   f"{{ return len + {n}; }}\n"
                   for n in range(MAX_SESSION_UNITS + 1)]
        session = CompilerSession()
        session.compile(sources[0], level=OptLevel.O2)
        for source in sources[1:-1]:
            session.front_end(source, CompileOptions())
        session.compile(sources[0], level=OptLevel.O2)  # most recent now
        session.front_end(sources[-1], CompileOptions())
        assert len(session._units) == MAX_SESSION_UNITS
        assert sources[0] in session._units
        assert sources[1] not in session._units
        parses = session.stats.frontend_parses
        again = session.compile(sources[1], level=OptLevel.O2).module
        assert session.stats.frontend_parses == parses + 1
        assert print_module(again) == print_module(
            compile_source(sources[1], level=OptLevel.O2).module)
