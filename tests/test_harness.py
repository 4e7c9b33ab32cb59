"""Tests for the experiment harness: the drivers that regenerate the paper's
tables and figures (run on scaled-down configurations so they stay fast)."""

import pytest

from repro.harness import (
    ExperimentConfig, Figure4, Table1, Table3, format_bar_chart, format_table,
    reproduce_figure4, reproduce_table1, reproduce_table2, reproduce_table3,
    render_table2, run_experiment,
)
from repro.pipelines import CompilerSession, OptLevel
from repro.workloads import WC_PROGRAM, get_workload


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [30, 40]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "30" in text and "bb" in text

    def test_format_bar_chart(self):
        text = format_bar_chart(["x", "yy"], [1.0, 2.0], width=10)
        assert "#" in text
        assert "yy" in text


class TestExperimentRunner:
    def test_run_experiment_produces_all_measurements(self):
        workload = get_workload("echo")
        config = ExperimentConfig(level=OptLevel.O2, symbolic_input_bytes=2,
                                  timeout_seconds=30)
        result = run_experiment("echo", workload.source, config)
        assert result.paths >= 1
        assert result.compile_seconds > 0
        assert result.verify_seconds > 0
        assert result.interpreted_instructions > 0
        assert not result.timed_out

    def test_timeout_is_reported(self):
        workload = get_workload("od")
        config = ExperimentConfig(level=OptLevel.O0, symbolic_input_bytes=6,
                                  timeout_seconds=0.05,
                                  max_instructions=2_000)
        result = run_experiment("od", workload.source, config)
        assert result.timed_out


class TestTable1:
    @pytest.fixture(scope="class")
    def table(self):
        return reproduce_table1(symbolic_input_bytes=3, timeout_seconds=90)

    def test_has_all_levels_and_renders(self, table):
        assert set(table.results) == {OptLevel.O0, OptLevel.O2, OptLevel.O3,
                                      OptLevel.OVERIFY}
        text = table.render()
        assert "t_verify" in text and "# paths" in text

    def test_paper_shape_paths(self, table):
        paths = {level: table.results[level].paths for level in table.results}
        # Since the path-count PR the shape is strictly monotone: -O2's
        # scalar stack (SCCP, load elimination, algebraic simplification)
        # plus modest select formation beats -O0, and -OVERIFY still beats
        # everything by a wide margin.
        assert paths[OptLevel.O2] < paths[OptLevel.O0]
        assert paths[OptLevel.O3] <= paths[OptLevel.O2]
        assert paths[OptLevel.OVERIFY] * 3 <= paths[OptLevel.O3]
        assert paths[OptLevel.OVERIFY] * 5 <= paths[OptLevel.O0]

    def test_paper_shape_times(self, table):
        assert table.verify_speedup_over(OptLevel.O0) > 5
        assert table.verify_speedup_over(OptLevel.O3) > 1
        # Compilation gets slower as the pipeline gets more aggressive.
        # Compared on pass time alone: each level's compile_seconds also
        # holds a front end (-O0 parses the plain libc as the sweep's first
        # compile, -OVERIFY the vlibc), which says nothing about the
        # pipeline and made the comparison flip from run to run.
        session = CompilerSession()
        pass_seconds = {
            level: sum(run.duration_seconds for run in session.compile(
                WC_PROGRAM, level=level).pass_history)
            for level in (OptLevel.O0, OptLevel.OVERIFY)}
        assert pass_seconds[OptLevel.OVERIFY] >= pass_seconds[OptLevel.O0]

    def test_solver_v2_counters_reach_the_table(self, table):
        """The Solver-v2 counters flow through ``SolverStats.as_dict`` into
        the rendered rows, and the wc workload actually drives the UBTree
        index and the equality rewriter (branch-and-prune stays idle: wc
        has no wide symbolic variables, so its row must render as zero)."""
        text = table.render()
        for label in ("# ubtree hits", "# equality rewrites",
                      "# prune splits"):
            assert label in text
        total = {key: sum(int(result.solver_stats.get(key, 0))
                          for result in table.results.values())
                 for key in ("ubtree_hits", "equality_rewrites",
                             "prune_splits")}
        assert total["ubtree_hits"] > 0
        # Branch-free classification (front-end flattening plus range
        # merging) removed the var==const path constraints the equality
        # rewriter used to consume on wc; its counter must render but now
        # legitimately reads zero, like the idle branch-and-prune row.
        assert total["equality_rewrites"] == 0
        assert total["prune_splits"] == 0


class TestTable3:
    @pytest.fixture(scope="class")
    def table(self):
        names = ["wc", "cat", "grep", "uniq", "tr", "seq", "basename", "cut"]
        return reproduce_table3(workload_names=names)

    def test_counts_are_monotonic(self, table):
        assert table.monotonic_in_aggressiveness()

    def test_o0_performs_no_transformations(self, table):
        assert all(v == 0 for v in table.totals[OptLevel.O0].values())

    def test_overify_transforms_more_than_o3_overall(self, table):
        o3_total = sum(table.totals[OptLevel.O3].values())
        overify_total = sum(table.totals[OptLevel.OVERIFY].values())
        assert 0 < o3_total < overify_total

    def test_overify_converts_more_branches_than_o3(self, table):
        assert table.totals[OptLevel.OVERIFY]["branches_converted"] >= \
            table.totals[OptLevel.O3]["branches_converted"]
        assert table.totals[OptLevel.OVERIFY]["branches_converted"] > 0

    def test_render_contains_all_rows(self, table):
        text = table.render()
        for label in ("# functions inlined", "# loops unswitched",
                      "# loops unrolled", "# branches converted"):
            assert label in text


class TestFigure4:
    @pytest.fixture(scope="class")
    def figure(self):
        workloads = [get_workload(name) for name in
                     ("echo", "grep", "od", "wc", "tr", "head")]
        # 4 symbolic bytes (was 3): the Solver-v2 stack made -O0
        # verification fast enough that 3-byte runs are compile-dominated,
        # which washes out the paper-shape ratios this class asserts.  One
        # more byte keeps the experiment verification-dominated, like the
        # paper's originals.
        return reproduce_figure4(symbolic_input_bytes=4, timeout_seconds=30,
                                 max_instructions=800_000,
                                 workloads=workloads)

    def test_every_program_measured_at_every_level(self, figure):
        assert len(figure.outcomes) == 6
        for outcome in figure.outcomes:
            assert set(outcome.results) == set(
                (OptLevel.O0, OptLevel.O3, OptLevel.OVERIFY))

    def test_overify_wins_on_average(self, figure):
        # The paper reports a 58% mean reduction vs -O3 and 63% vs -O0.  On
        # scaled-down inputs the aggregate (total-time) reduction is the
        # faithful analogue; it must be clearly positive, and the largest
        # per-program speedup must be substantial.
        assert figure.total_time_reduction_vs(OptLevel.O0) > 0.3
        assert figure.max_speedup_vs(OptLevel.O0) > 5.0

    def test_no_overify_timeouts_on_small_inputs(self, figure):
        assert figure.timeouts(OptLevel.OVERIFY) == 0

    def test_render_includes_summary(self, figure):
        text = figure.render()
        assert "mean reduction vs -O3" in text
        assert "Figure 4" in text

    def test_solver_v2_counters_reach_the_summary(self, figure):
        text = figure.render()
        for label in ("solver ubtree hits (sweep total)",
                      "solver equality rewrites (sweep total)",
                      "solver prune splits (sweep total)"):
            assert label in text
        assert figure.solver_stat_total("ubtree_hits") > 0
        assert figure.solver_stat_total("equality_rewrites") > 0


class TestTable2Ablation:
    @pytest.fixture(scope="class")
    def rows(self):
        return reproduce_table2(symbolic_input_bytes=3, timeout_seconds=60)

    def test_all_variants_measured(self, rows):
        names = [row.name for row in rows]
        assert "full -OVERIFY" in names
        assert "-O3 (CPU-oriented)" in names
        assert "without verification libC" in names

    def test_full_overify_has_fewest_paths(self, rows):
        full = rows[0]
        assert full.name == "full -OVERIFY"
        assert all(full.paths <= row.paths for row in rows)

    def test_render(self, rows):
        text = render_table2(rows)
        assert "Table 2" in text and "t_verify" in text
