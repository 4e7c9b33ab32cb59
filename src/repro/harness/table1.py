"""Table 1: exhaustive symbolic execution of the ``wc`` kernel.

The paper explores all paths through Listing 1 for strings of up to 10
characters and reports, per optimization level: verification time, compile
time, run time (on a text with 108 words), the number of instructions KLEE
interpreted, and the number of explored paths.

The reproduction keeps the experiment identical in structure but scales the
symbolic string length down (default 5 bytes) because the engine is a pure
Python interpreter: the relative ordering between levels — which is the
paper's claim — is unaffected by the bound.

Run with ``python -m repro.harness.table1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..pipelines import OptLevel
from ..workloads import WC_PROGRAM
from .experiment import ExperimentConfig, ExperimentResult, run_level_sweep
from .report import format_table

#: Optimization levels in the order the paper's Table 1 lists them.
TABLE1_LEVELS: Sequence[OptLevel] = (
    OptLevel.O0, OptLevel.O2, OptLevel.O3, OptLevel.OVERIFY,
)

#: A ~108-word text, mirroring the paper's t_run measurement input.
RUN_TEXT = (b"the quick brown fox jumps over the lazy dog " * 12)[:500]


@dataclass
class Table1:
    """The reproduced table."""

    results: Dict[OptLevel, ExperimentResult]
    symbolic_input_bytes: int

    def rows(self) -> List[List[object]]:
        rows: List[List[object]] = []
        metrics = [
            ("t_verify [ms]", lambda r: f"{r.verify_seconds * 1000:.0f}"),
            ("t_compile [ms]", lambda r: f"{r.compile_seconds * 1000:.0f}"),
            ("t_run [ms]", lambda r: f"{r.run_seconds * 1000:.0f}"),
            ("# instructions", lambda r: r.interpreted_instructions),
            ("# paths", lambda r: r.paths),
            ("# solver queries",
             lambda r: int(r.solver_stats.get("queries", 0))),
            ("# solver cache hits",
             lambda r: int(r.solver_stats.get("cache_hits", 0))),
            ("# model-cache hits",
             lambda r: int(r.solver_stats.get("model_cache_hits", 0))),
            ("# ubtree hits",
             lambda r: int(r.solver_stats.get("ubtree_hits", 0))),
            ("# equality rewrites",
             lambda r: int(r.solver_stats.get("equality_rewrites", 0))),
            ("# prune splits",
             lambda r: int(r.solver_stats.get("prune_splits", 0))),
            # Which budget stopped the run, if any — a truncated level's
            # path/instruction rows undercount, and the table says so.
            ("budget hit", lambda r: r.termination_reason or "none"),
        ]
        for label, getter in metrics:
            rows.append([label] + [getter(self.results[level])
                                   for level in TABLE1_LEVELS])
        return rows

    def render(self) -> str:
        headers = ["Optimization"] + [str(level) for level in TABLE1_LEVELS]
        title = (f"Table 1: exhaustive exploration of wc "
                 f"({self.symbolic_input_bytes} symbolic bytes)")
        return format_table(headers, self.rows(), title=title)

    # ------------------------------------------------------- shape checks
    def verify_speedup_over(self, baseline: OptLevel) -> float:
        """t_verify(baseline) / t_verify(-OVERIFY)."""
        overify = self.results[OptLevel.OVERIFY].verify_seconds
        if overify <= 0:
            overify = 1e-9
        return self.results[baseline].verify_seconds / overify

    def paths_reduction_over(self, baseline: OptLevel) -> float:
        overify = max(1, self.results[OptLevel.OVERIFY].paths)
        return self.results[baseline].paths / overify


def reproduce_table1(symbolic_input_bytes: int = 5,
                     timeout_seconds: float = 120.0) -> Table1:
    """Run the Table 1 experiment and return the results."""
    config = ExperimentConfig(
        level=OptLevel.O0,
        symbolic_input_bytes=symbolic_input_bytes,
        concrete_input=RUN_TEXT,
        timeout_seconds=timeout_seconds,
    )
    results = run_level_sweep("wc", WC_PROGRAM, TABLE1_LEVELS, config)
    return Table1(results=results, symbolic_input_bytes=symbolic_input_bytes)


def main() -> None:  # pragma: no cover - exercised via CLI
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bytes", type=int, default=5,
                        help="number of symbolic input bytes (paper: 10)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-level verification budget in seconds")
    args = parser.parse_args()
    table = reproduce_table1(args.bytes, args.timeout)
    print(table.render())
    print()
    print(f"verification speedup of -OVERIFY over -O0: "
          f"{table.verify_speedup_over(OptLevel.O0):.1f}x")
    print(f"verification speedup of -OVERIFY over -O3: "
          f"{table.verify_speedup_over(OptLevel.O3):.1f}x")
    print(f"path reduction of -OVERIFY over -O0: "
          f"{table.paths_reduction_over(OptLevel.O0):.1f}x")


if __name__ == "__main__":  # pragma: no cover
    main()
