"""Table 2 (ablation): the impact of individual transformations on
verification time vs execution time.

The paper's Table 2 is a qualitative matrix ("+", "-", "+/-").  The
reproduction turns it into a measured ablation: starting from the full
-OVERIFY configuration, each design choice the paper's Table 2 rates is
disabled in turn, and both the verification cost (symbolic execution of the
wc kernel) and the execution cost (concrete interpretation) are re-measured.
A positive verification delta means the transformation helps verification; a
negative execution delta means it costs execution performance — reproducing
the paper's "conflicting requirements" observation.

Run with ``python -m repro.harness.table2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..pipelines import CompilerSession, CompileOptions, OptLevel
from ..verification import VerificationRequest, make_backend
from ..workloads import WC_PROGRAM
from .report import format_table


@dataclass
class AblationVariant:
    """One row of the ablation: the -OVERIFY configuration minus one choice."""

    name: str
    description: str
    options: CompileOptions


@dataclass
class AblationRow:
    name: str
    verify_seconds: float
    run_seconds: float
    paths: int

    def verification_impact(self, full: "AblationRow") -> str:
        """"+" if the disabled transformation was helping verification."""
        return "+" if self.verify_seconds > full.verify_seconds * 1.05 else \
            ("-" if self.verify_seconds < full.verify_seconds * 0.95 else "=")

    def execution_impact(self, full: "AblationRow") -> str:
        return "+" if self.run_seconds > full.run_seconds * 1.05 else \
            ("-" if self.run_seconds < full.run_seconds * 0.95 else "=")


def ablation_variants() -> List[AblationVariant]:
    """The design choices the paper's Table 2 rates, one ablation each."""
    return [
        AblationVariant(
            name="full -OVERIFY",
            description="the complete verification-oriented configuration",
            options=CompileOptions(level=OptLevel.OVERIFY)),
        AblationVariant(
            name="without runtime checks",
            description="disable the runtime-check insertion pass",
            options=CompileOptions(level=OptLevel.OVERIFY,
                                   enable_runtime_checks=False)),
        AblationVariant(
            name="without verification libC",
            description="link the execution-optimized C library instead",
            options=CompileOptions(level=OptLevel.OVERIFY,
                                   verification_libc=False)),
        AblationVariant(
            name="-O3 (CPU-oriented)",
            description="the release build the paper compares against",
            options=CompileOptions(level=OptLevel.O3)),
        AblationVariant(
            name="-O0 (debug)",
            description="the unoptimized build",
            options=CompileOptions(level=OptLevel.O0)),
    ]


def measure_variant(variant: AblationVariant, symbolic_input_bytes: int,
                    timeout_seconds: float, concrete_input: bytes,
                    session: Optional[CompilerSession] = None) -> AblationRow:
    session = session or CompilerSession()
    compiled = session.compile(WC_PROGRAM, variant.options)
    request = VerificationRequest(symbolic_input_bytes=symbolic_input_bytes,
                                  concrete_input=concrete_input,
                                  timeout_seconds=timeout_seconds)
    verified = make_backend("symex").verify(compiled.module, request)
    concrete = make_backend("interp").verify(compiled.module, request)
    return AblationRow(name=variant.name,
                       verify_seconds=verified.seconds,
                       run_seconds=concrete.seconds,
                       paths=verified.paths)


def reproduce_table2(symbolic_input_bytes: int = 4,
                     timeout_seconds: float = 60.0,
                     concrete_input: bytes = b"some words to count here"
                     ) -> List[AblationRow]:
    # All variants compile the same wc source, so one session shares the
    # front end across the whole ablation.
    session = CompilerSession()
    rows = []
    for variant in ablation_variants():
        rows.append(measure_variant(variant, symbolic_input_bytes,
                                    timeout_seconds, concrete_input,
                                    session=session))
    return rows


def render_table2(rows: List[AblationRow]) -> str:
    full = rows[0]
    table_rows = []
    for row in rows:
        table_rows.append([
            row.name,
            f"{row.verify_seconds * 1000:.0f}",
            f"{row.run_seconds * 1000:.0f}",
            row.paths,
            row.verification_impact(full) if row is not full else "·",
            row.execution_impact(full) if row is not full else "·",
        ])
    return format_table(
        ["configuration", "t_verify [ms]", "t_run [ms]", "paths",
         "verif. cost vs full", "exec. cost vs full"],
        table_rows,
        title="Table 2 (measured ablation of the -OVERIFY design choices)")


def main() -> None:  # pragma: no cover - exercised via CLI
    rows = reproduce_table2()
    print(render_table2(rows))


if __name__ == "__main__":  # pragma: no cover
    main()
