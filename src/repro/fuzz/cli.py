"""The ``python -m repro fuzz`` subcommand.

Drives the generator/oracle/minimizer stack over a seed range:

    python -m repro fuzz --seeds 200 --jobs 4       # CI smoke budget
    python -m repro fuzz --seed 17 --minimize       # reproduce one finding
    python -m repro fuzz --check-workloads          # replay fuzz regressions

Every divergent seed is reported with a one-line repro command, and the
program plus the oracle's full report are written to ``--out`` (one
``seed<N>.c`` / ``seed<N>.txt`` pair per finding) so CI can upload them
as artifacts.  The exit status is the number of divergent seeds, capped
at 99 (0 = clean run).

Determinism: for a fixed ``(seed, config)`` the generated program and
the oracle verdict are reproducible across runs, interpreter hash seeds,
and ``--jobs`` values — results are keyed and printed in seed order, not
completion order.
"""

from __future__ import annotations

import argparse
import math
import os
import time
from typing import List, Optional, Tuple

from ..pipelines.levels import OptLevel
from .generator import GeneratorConfig, generate_program
from .minimize import count_statements, minimize_source
from .oracle import (
    OracleConfig, SeedOutcome, check_compiles, check_seed, check_source,
)

#: Exploration budgets for fuzzing runs: much tighter than the library
#: defaults, so one awkward seed costs seconds, not minutes.  Truncated
#: explorations skip the exhaustive cross-checks, trading depth per seed
#: for seeds per hour.
FUZZ_ORACLE_CONFIG = OracleConfig(
    max_paths=96,
    max_instructions=200_000,
    max_forks=1_024,
    timeout_seconds=3.0,
    interp_max_steps=200_000,
    max_concrete_inputs=16,
    query_deadline_seconds=0.5,
)


def _worker(task: Tuple[int, GeneratorConfig, OracleConfig]) -> SeedOutcome:
    seed, generator_config, oracle_config = task
    return check_seed(seed, generator_config, oracle_config)


def _progress(every: int, outcomes: List[SeedOutcome],
              started: float) -> None:
    if not every or len(outcomes) % every:
        return
    bad = sum(1 for outcome in outcomes if not outcome.clean)
    print(f"  ... {len(outcomes)} seeds, {bad} divergent, "
          f"{time.time() - started:.0f}s", flush=True)


def _minimize_outcome(outcome: SeedOutcome,
                      generator_config: GeneratorConfig,
                      oracle_config: OracleConfig) -> Tuple[str, int, int]:
    """Shrink a divergent program while the same divergence kinds persist.

    When every kind to keep is "compile", a candidate is only compiled:
    the compiles alone decide those, and exploring every level would cost
    about 60 times as much per candidate.

    Returns ``(minimized_source, before_stmts, after_stmts)``.
    """
    want_kinds = frozenset(d.kind for d in outcome.divergences)

    def still_diverges(candidate: str) -> bool:
        if want_kinds == {"compile"}:
            result = check_compiles(candidate, seed=outcome.seed)
        else:
            result = check_source(candidate, generator_config,
                                  oracle_config, seed=outcome.seed)
        got = frozenset(d.kind for d in result.divergences)
        return bool(got & want_kinds)

    result = minimize_source(outcome.source, still_diverges)
    return (result.minimized_source,
            count_statements(outcome.source),
            count_statements(result.minimized_source))


def _write_finding(out_dir: str, outcome: SeedOutcome,
                   minimized: Optional[str]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"seed{outcome.seed}")
    with open(stem + ".c", "w", encoding="utf-8") as handle:
        handle.write(minimized if minimized is not None else outcome.source)
    with open(stem + ".txt", "w", encoding="utf-8") as handle:
        for divergence in outcome.divergences:
            handle.write(divergence.describe() + "\n")
        handle.write(f"repro: {outcome.divergences[0].repro_command()}\n")
        if minimized is not None:
            handle.write("\n/* original (pre-minimization) program: */\n")
            handle.write(outcome.source)


def _check_workloads(oracle_config: OracleConfig,
                     generator_config: GeneratorConfig) -> int:
    """Replay the committed fuzz regression workloads through the oracle."""
    from ..workloads import all_workloads

    failures = 0
    for workload in all_workloads(category="fuzz"):
        config = GeneratorConfig(
            input_bytes=workload.default_input_bytes)
        outcome = check_source(workload.source, config, oracle_config)
        status = "clean" if outcome.clean else "DIVERGED"
        print(f"workload {workload.name}: {status}")
        for divergence in outcome.divergences:
            print(f"    {divergence.describe()}")
            failures += 1
    return failures


def fuzz_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Differential fuzzing: generate MiniC programs and "
                    "cross-check every optimization level against every "
                    "other, interp against symex, and the optimized solver "
                    "against a naive one (see docs/fuzzing.md).")
    parser.add_argument("--seeds", type=int, default=50, metavar="N",
                        help="number of seeds to run (default 50)")
    parser.add_argument("--start", type=int, default=0, metavar="N",
                        help="first seed (default 0)")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="run exactly one seed (overrides --seeds)")
    parser.add_argument("--jobs", type=int, default=1, metavar="K",
                        help="worker processes (default 1)")
    parser.add_argument("--minimize", action="store_true",
                        help="shrink each divergent program to a minimal "
                             "reproducer before reporting it")
    parser.add_argument("--input-bytes", type=int, default=None, metavar="N",
                        help="symbolic input length for generated programs "
                             f"(default {GeneratorConfig().input_bytes})")
    parser.add_argument("--max-paths", type=int,
                        default=FUZZ_ORACLE_CONFIG.max_paths,
                        help="symbolic path budget per level (default "
                             f"{FUZZ_ORACLE_CONFIG.max_paths})")
    parser.add_argument("--timeout", type=float,
                        default=FUZZ_ORACLE_CONFIG.timeout_seconds,
                        help="per-exploration timeout in seconds (default "
                             f"{FUZZ_ORACLE_CONFIG.timeout_seconds:g})")
    parser.add_argument("--max-concrete-inputs", type=int,
                        default=FUZZ_ORACLE_CONFIG.max_concrete_inputs,
                        metavar="N",
                        help="cap on cross-level concrete replay inputs; "
                             "the dominant per-seed cost (default "
                             f"{FUZZ_ORACLE_CONFIG.max_concrete_inputs})")
    parser.add_argument("--no-solver-matrix", action="store_true",
                        help="skip the optimized-vs-naive solver matrix "
                             "(faster, checks levels only)")
    parser.add_argument("--relcheck", action="store_true",
                        help="also translation-validate -O0 vs -OVERIFY "
                             "per seed with the relcheck product driver "
                             "(oracle family 6; slower but *proves* "
                             "return-value and trap-set agreement)")
    parser.add_argument("--out", default="fuzz-findings", metavar="DIR",
                        help="directory for divergence artifacts "
                             "(default fuzz-findings/)")
    parser.add_argument("--progress", type=int, default=0, metavar="N",
                        help="print a progress line every N seeds "
                             "(default 0 = only the final summary)")
    parser.add_argument("--emit", action="store_true",
                        help="print each generated program instead of "
                             "checking it (debugging aid)")
    parser.add_argument("--check-workloads", action="store_true",
                        help="run the oracle over the committed fuzz "
                             "regression workloads instead of new seeds")
    args = parser.parse_args(argv)
    for name, least in (("seeds", 1), ("jobs", 1), ("input_bytes", 1),
                        ("max_paths", 1), ("max_concrete_inputs", 0),
                        ("progress", 0)):
        value = getattr(args, name)
        if value is not None and value < least:
            parser.error(f"--{name.replace('_', '-')} must be >= {least}, "
                         f"got {value}")
    if not math.isfinite(args.timeout) or args.timeout < 0:
        parser.error(f"--timeout must be a finite number >= 0, got "
                     f"{args.timeout}")

    generator_config = GeneratorConfig() if args.input_bytes is None \
        else GeneratorConfig(input_bytes=args.input_bytes)
    oracle_config = OracleConfig(
        max_paths=args.max_paths,
        max_instructions=FUZZ_ORACLE_CONFIG.max_instructions,
        max_forks=FUZZ_ORACLE_CONFIG.max_forks,
        timeout_seconds=args.timeout,
        interp_max_steps=FUZZ_ORACLE_CONFIG.interp_max_steps,
        max_concrete_inputs=args.max_concrete_inputs,
        query_deadline_seconds=FUZZ_ORACLE_CONFIG.query_deadline_seconds,
        check_solver_matrix=not args.no_solver_matrix,
        check_relcheck=args.relcheck,
    )

    if args.check_workloads:
        return min(_check_workloads(oracle_config, generator_config), 99)

    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.start, args.start + args.seeds))

    if args.emit:
        for seed in seeds:
            print(generate_program(seed, generator_config))
        return 0

    started = time.time()
    tasks = [(seed, generator_config, oracle_config) for seed in seeds]
    outcomes: List[SeedOutcome] = []
    if args.jobs > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(args.jobs, len(tasks))) as pool:
            for outcome in pool.imap(_worker, tasks, chunksize=1):
                outcomes.append(outcome)
                _progress(args.progress, outcomes, started)
    else:
        for task in tasks:
            outcomes.append(_worker(task))
            _progress(args.progress, outcomes, started)

    divergent = 0
    truncated = 0
    for outcome in outcomes:
        if outcome.truncated:
            truncated += 1
        if outcome.clean:
            continue
        divergent += 1
        print(f"seed {outcome.seed}: DIVERGED "
              f"({len(outcome.divergences)} divergence(s))")
        for divergence in outcome.divergences:
            print(f"    [{divergence.kind}] {divergence.detail}")
        minimized: Optional[str] = None
        if args.minimize:
            minimized, before, after = _minimize_outcome(
                outcome, generator_config, oracle_config)
            print(f"    minimized {before} -> {after} statements:")
            for line in minimized.splitlines():
                print(f"      {line}")
        _write_finding(args.out, outcome, minimized)
        print(f"    repro: {outcome.divergences[0].repro_command()}")
        print(f"    artifacts: {args.out}/seed{outcome.seed}.c")

    elapsed = time.time() - started
    print(f"fuzz: {len(seeds)} seed(s), {len(seeds) - divergent} clean, "
          f"{divergent} divergent, {truncated} truncated, {elapsed:.1f}s")
    return min(divergent, 99)
