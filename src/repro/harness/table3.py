"""Table 3: static transformation counts when compiling the Coreutils-like
suite with different options.

The paper compiles Coreutils 6.10 with -O0, -O3 and -OSYMBEX and reports how
many functions were inlined, loops unswitched, loops unrolled, and branches
converted to branch-free form.  The reproduction compiles every registered
Coreutils-like workload (linked against the appropriate libc variant) and
sums the same four counters from the pass statistics.

Run with ``python -m repro.harness.table3``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..pipelines import CompilerSession, CompileOptions, OptLevel
from ..workloads import all_workloads
from .report import format_table

TABLE3_LEVELS: Sequence[OptLevel] = (OptLevel.O0, OptLevel.O3, OptLevel.OVERIFY)

TABLE3_ROWS = [
    ("# functions inlined", "functions_inlined"),
    ("# loops unswitched", "loops_unswitched"),
    ("# loops unrolled", "loops_unrolled"),
    ("# branches converted", "branches_converted"),
]


@dataclass
class Table3:
    """Aggregated transformation counts per level."""

    totals: Dict[OptLevel, Dict[str, int]]
    per_program: Dict[str, Dict[OptLevel, Dict[str, int]]] = field(
        default_factory=dict)
    programs: int = 0

    def render(self) -> str:
        headers = ["Optimization"] + [str(level) for level in TABLE3_LEVELS]
        rows: List[List[object]] = []
        for label, key in TABLE3_ROWS:
            rows.append([label] + [self.totals[level][key]
                                   for level in TABLE3_LEVELS])
        title = (f"Table 3: compiling {self.programs} Coreutils-like "
                 f"programs with different options")
        return format_table(headers, rows, title=title)

    def monotonic_in_aggressiveness(self) -> bool:
        """The paper's qualitative claim: -OSYMBEX performs at least as many
        of each transformation as -O3, which performs at least as many as
        -O0 (which performs none)."""
        for _, key in TABLE3_ROWS:
            o0 = self.totals[OptLevel.O0][key]
            o3 = self.totals[OptLevel.O3][key]
            overify = self.totals[OptLevel.OVERIFY][key]
            if not (o0 <= o3 <= overify):
                return False
        return True


def reproduce_table3(category: Optional[str] = "coreutils",
                     workload_names: Optional[Sequence[str]] = None) -> Table3:
    """Compile the workload suite at -O0/-O3/-OVERIFY and aggregate counts."""
    workloads = all_workloads(category)
    if workload_names is not None:
        workloads = [w for w in workloads if w.name in set(workload_names)]
    totals: Dict[OptLevel, Dict[str, int]] = {
        level: {key: 0 for _, key in TABLE3_ROWS} for level in TABLE3_LEVELS}
    per_program: Dict[str, Dict[OptLevel, Dict[str, int]]] = {}
    for workload in workloads:
        per_program[workload.name] = {}
        # One session per workload: the levels share the parsed front end.
        session = CompilerSession()
        for level in TABLE3_LEVELS:
            # Every level is compiled against the same (execution-oriented)
            # C library so that the transformation counts compare the *pass
            # pipelines*, not the library sources — matching the paper's
            # Table 3, which predates the verification libc.
            result = session.compile(workload.source,
                                     CompileOptions(level=level,
                                                    verification_libc=False))
            row = result.table3_row()
            per_program[workload.name][level] = row
            for _, key in TABLE3_ROWS:
                totals[level][key] += row[key]
    return Table3(totals=totals, per_program=per_program,
                  programs=len(workloads))


def main() -> None:  # pragma: no cover - exercised via CLI
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--category", default="coreutils")
    args = parser.parse_args()
    table = reproduce_table3(args.category)
    print(table.render())
    print()
    print("monotonic (O0 <= O3 <= OVERIFY for every row):",
          table.monotonic_in_aggressiveness())


if __name__ == "__main__":  # pragma: no cover
    main()
