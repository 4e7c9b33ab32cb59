"""Figure 4: per-program compile+analysis time for the Coreutils-like suite.

The paper runs KLEE on each of 93 Coreutils programs compiled with -O0, -O3
and -OSYMBEX (2-10 bytes of symbolic input, one hour budget each), keeps the
experiments where at least one version finishes, and plots, per program, the
time of the fastest of -O3/-OSYMBEX plus the time gained by one over the
other.  It reports a 58% mean reduction in compilation+analysis time versus
-O3 (63% versus -O0) and a maximum gain of 95x.

The reproduction runs the same sweep over the registered workloads with a
scaled-down per-program budget and renders the figure as an ASCII bar chart
plus the same summary statistics.

Run with ``python -m repro.harness.figure4``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..pipelines import OptLevel
from ..workloads import Workload, all_workloads
from .experiment import ExperimentConfig, ExperimentResult, run_level_sweep
from .report import format_bar_chart, format_table

FIGURE4_LEVELS: Sequence[OptLevel] = (OptLevel.O0, OptLevel.O3, OptLevel.OVERIFY)


@dataclass
class ProgramOutcome:
    """Per-program measurements across the three builds."""

    name: str
    results: Dict[OptLevel, ExperimentResult]

    def total(self, level: OptLevel) -> float:
        return self.results[level].total_seconds

    def timed_out(self, level: OptLevel) -> bool:
        return self.results[level].timed_out

    @property
    def gain_over_o3(self) -> float:
        """Time gained by -OVERIFY over -O3 (positive when -OVERIFY wins)."""
        return self.total(OptLevel.O3) - self.total(OptLevel.OVERIFY)

    @property
    def speedup_over_o3(self) -> float:
        overify = max(self.total(OptLevel.OVERIFY), 1e-9)
        return self.total(OptLevel.O3) / overify


@dataclass
class Figure4:
    """All per-program outcomes plus the aggregate statistics."""

    outcomes: List[ProgramOutcome]
    symbolic_input_bytes: int
    timeout_seconds: float

    # ------------------------------------------------------------ summary
    def kept(self) -> List[ProgramOutcome]:
        """Experiments where at least one build finished (paper's filter)."""
        return [o for o in self.outcomes
                if not all(o.timed_out(level) for level in FIGURE4_LEVELS)]

    def mean_reduction_vs(self, baseline: OptLevel) -> float:
        """Mean reduction of total time versus ``baseline`` (paper: 58% vs
        -O3 and 63% vs -O0)."""
        kept = self.kept()
        if not kept:
            return 0.0
        reductions = []
        for outcome in kept:
            base = outcome.total(baseline)
            overify = outcome.total(OptLevel.OVERIFY)
            if base <= 0:
                continue
            reductions.append((base - overify) / base)
        return sum(reductions) / len(reductions) if reductions else 0.0

    def total_time_reduction_vs(self, baseline: OptLevel) -> float:
        """Reduction of the *total* (summed over programs) compile+analysis
        time versus ``baseline``.  On scaled-down inputs the per-program mean
        is dominated by programs whose runtime is pure compile time, so the
        aggregate is the more faithful analogue of the paper's long-budget
        average."""
        kept = self.kept()
        base_total = sum(outcome.total(baseline) for outcome in kept)
        overify_total = sum(outcome.total(OptLevel.OVERIFY) for outcome in kept)
        if base_total <= 0:
            return 0.0
        return (base_total - overify_total) / base_total

    def max_speedup_vs(self, baseline: OptLevel) -> float:
        kept = self.kept()
        if not kept:
            return 0.0
        return max(outcome.total(baseline) /
                   max(outcome.total(OptLevel.OVERIFY), 1e-9)
                   for outcome in kept)

    def timeouts(self, level: OptLevel) -> int:
        return sum(1 for outcome in self.outcomes if outcome.timed_out(level))

    def rescued_programs(self, baseline: OptLevel) -> int:
        """Programs that time out at ``baseline`` but finish with -OVERIFY."""
        return sum(1 for outcome in self.outcomes
                   if outcome.timed_out(baseline)
                   and not outcome.timed_out(OptLevel.OVERIFY))

    def solver_stat_total(self, key: str) -> int:
        """A solver counter summed over every program and level of the
        sweep (queries, cache_hits, model_cache_hits, ...)."""
        return sum(int(outcome.results[level].solver_stats.get(key, 0))
                   for outcome in self.outcomes
                   for level in FIGURE4_LEVELS)

    # ------------------------------------------------------------ rendering
    def render(self) -> str:
        kept = sorted(self.kept(), key=lambda o: o.gain_over_o3)
        labels = []
        values = []
        for outcome in kept:
            fastest = min(outcome.total(OptLevel.O3),
                          outcome.total(OptLevel.OVERIFY))
            gain = outcome.gain_over_o3
            marker = "+" if gain >= 0 else "-"
            labels.append(f"{outcome.name} [{marker}{abs(gain):.2f}s]")
            values.append(fastest + abs(gain))
        chart = format_bar_chart(
            labels, values,
            title=(f"Figure 4: compile+analysis time per program "
                   f"({self.symbolic_input_bytes} symbolic bytes, "
                   f"{self.timeout_seconds:.0f}s budget); "
                   f"bar = fastest-of-two + |gain|, sign = -OVERIFY gain "
                   f"over -O3"))
        summary_rows = [
            ["mean reduction vs -O3",
             f"{self.mean_reduction_vs(OptLevel.O3) * 100:.0f}%"],
            ["mean reduction vs -O0",
             f"{self.mean_reduction_vs(OptLevel.O0) * 100:.0f}%"],
            ["total-time reduction vs -O3",
             f"{self.total_time_reduction_vs(OptLevel.O3) * 100:.0f}%"],
            ["total-time reduction vs -O0",
             f"{self.total_time_reduction_vs(OptLevel.O0) * 100:.0f}%"],
            ["max speedup vs -O3", f"{self.max_speedup_vs(OptLevel.O3):.1f}x"],
            ["timeouts at -O0", self.timeouts(OptLevel.O0)],
            ["timeouts at -O3", self.timeouts(OptLevel.O3)],
            ["timeouts at -OVERIFY", self.timeouts(OptLevel.OVERIFY)],
            ["rescued vs -O3 (timed out at -O3, finish with -OVERIFY)",
             self.rescued_programs(OptLevel.O3)],
            ["solver queries (sweep total)",
             self.solver_stat_total("queries")],
            ["solver cache hits (sweep total)",
             self.solver_stat_total("cache_hits")],
            ["solver model-cache hits (sweep total)",
             self.solver_stat_total("model_cache_hits")],
            ["solver ubtree hits (sweep total)",
             self.solver_stat_total("ubtree_hits")],
            ["solver equality rewrites (sweep total)",
             self.solver_stat_total("equality_rewrites")],
            ["solver prune splits (sweep total)",
             self.solver_stat_total("prune_splits")],
            ["solver assignments tried (sweep total)",
             self.solver_stat_total("assignments_tried")],
        ]
        summary = format_table(["statistic", "value"], summary_rows,
                               title="Figure 4 summary")
        return chart + "\n\n" + summary


def reproduce_figure4(symbolic_input_bytes: int = 4,
                      timeout_seconds: float = 20.0,
                      max_instructions: int = 400_000,
                      workloads: Optional[Sequence[Workload]] = None,
                      category: Optional[str] = "coreutils") -> Figure4:
    """Run the Figure 4 sweep over the workload suite."""
    selected = list(workloads) if workloads is not None \
        else all_workloads(category)
    outcomes: List[ProgramOutcome] = []
    for workload in selected:
        config = ExperimentConfig(
            level=OptLevel.O0,
            symbolic_input_bytes=symbolic_input_bytes,
            timeout_seconds=timeout_seconds,
            max_instructions=max_instructions,
            concrete_input=b"sample: input\ntext 42\n",
        )
        results = run_level_sweep(workload.name, workload.source,
                                  FIGURE4_LEVELS, config)
        outcomes.append(ProgramOutcome(name=workload.name, results=results))
    return Figure4(outcomes=outcomes,
                   symbolic_input_bytes=symbolic_input_bytes,
                   timeout_seconds=timeout_seconds)


def main() -> None:  # pragma: no cover - exercised via CLI
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bytes", type=int, default=4,
                        help="symbolic input bytes per program (paper: 2-10)")
    parser.add_argument("--timeout", type=float, default=20.0,
                        help="per-program, per-level budget in seconds "
                             "(paper: 3600)")
    parser.add_argument("--programs", nargs="*", default=None,
                        help="restrict to these workload names")
    args = parser.parse_args()
    workloads = None
    if args.programs:
        from ..workloads import get_workload
        workloads = [get_workload(name) for name in args.programs]
    figure = reproduce_figure4(symbolic_input_bytes=args.bytes,
                               timeout_seconds=args.timeout,
                               workloads=workloads)
    print(figure.render())


if __name__ == "__main__":  # pragma: no cover
    main()
