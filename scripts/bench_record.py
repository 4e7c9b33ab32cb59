#!/usr/bin/env python3
"""Record the symbolic-execution perf trajectory into BENCH_symex.json.

Runs the two workloads the solver benchmarks track — the Table 1 ``wc``
sweep and the branch-heavy program from
``benchmarks/test_symex_solver_bench.py`` — and appends one labelled entry
with wall-clock times and solver counters to the JSON file.  Run it after
perf-relevant changes so the trajectory stays comparable across PRs:

    PYTHONPATH=src python scripts/bench_record.py --label "my change"
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.pipelines import (  # noqa: E402
    CompileOptions, LEVEL_PIPELINES, OptLevel, build_pipeline_from_text,
    compile_source, link_sources,
)
from repro.frontend import analyze, compile_to_ir, lower, parse  # noqa: E402
from repro.ir import verify_module  # noqa: E402
from repro.symex import SymexLimits, explore  # noqa: E402
from repro.workloads import WC_PROGRAM  # noqa: E402

from test_symex_solver_bench import (  # noqa: E402
    BRANCH_HEAVY_PROGRAM, INPUT_BYTES, WC_SWEEP_PATHS, WIDE_VALUE_PROGRAM,
)

WC_LEVELS = [OptLevel.O0, OptLevel.O2, OptLevel.O3, OptLevel.OVERIFY]
WC_INPUT_BYTES = 4
TIMEOUT_SECONDS = 120.0


def _solver_summary(report, seconds: float) -> dict:
    stats = report.solver_stats
    branches = max(1, report.stats.branches_encountered)
    return {
        "verify_seconds": round(seconds, 3),
        "paths": report.stats.total_paths,
        "solver_queries": stats.queries,
        "queries_per_branch": round(stats.queries / branches, 3),
        "assignments_tried": stats.assignments_tried,
        "cache_hits": stats.cache_hits,
        "model_cache_hits": stats.model_cache_hits,
        "csp_searches": stats.csp_searches,
        "ubtree_hits": stats.ubtree_hits,
        "ubtree_misses": stats.ubtree_misses,
        "equality_rewrites": stats.equality_rewrites,
        "prune_splits": stats.prune_splits,
        "unknown_results": stats.unknown_results,
    }


#: The verification-oriented scalar passes whose path contribution the
#: trajectory tracks (each is ablated from -O2 in turn).
ABLATABLE_PASSES = ("sccp", "load-elim", "algebraic-simplify")


def _explore_pipeline_text(text: str) -> tuple:
    """(paths, interpreted instructions) for wc compiled through ``text``."""
    source = link_sources(WC_PROGRAM, CompileOptions(level=OptLevel.O2))
    unit = parse(source)
    analyze(unit)
    module = lower(unit, "wc")
    pipeline = build_pipeline_from_text(text, max_iterations=2)
    pipeline.run_until_fixpoint(module)
    verify_module(module)
    report = explore(module, WC_INPUT_BYTES,
                     limits=SymexLimits(timeout_seconds=TIMEOUT_SECONDS))
    return report.stats.total_paths, report.stats.instructions_interpreted


def _pass_path_deltas(o2_paths: int) -> dict:
    full_text = LEVEL_PIPELINES[OptLevel.O2]
    full_paths, full_instructions = _explore_pipeline_text(full_text)
    deltas: dict = {
        "level": str(OptLevel.O2),
        "paths_full": full_paths,
        "instructions_full": full_instructions,
        "consistent_with_sweep": full_paths == o2_paths,
    }
    for name in ABLATABLE_PASSES:
        ablated_text = full_text.replace(f"{name},", "")
        assert ablated_text != full_text, f"{name} not in the -O2 pipeline"
        paths, instructions = _explore_pipeline_text(ablated_text)
        deltas[name] = {
            "paths_without": paths,
            "paths_saved": paths - full_paths,
            "instructions_without": instructions,
            "instructions_saved": instructions - full_instructions,
        }
    return deltas


def _warm_store_trajectory() -> dict:
    """The knowledge-store amortization benchmark: the wc 4-byte sweep
    cold, warm (solver caches primed from a store the cold sweep
    produced), and memoized (the store-backed backend answering from the
    verification memo).  The warm timing covers the sweep itself; the
    one-time load+prime cost — which the service pays once at startup,
    not per job — is reported separately as ``prime_seconds``.  Best of
    three rounds each; outcomes are identical by construction (the
    warm-vs-cold differential in ``tests/test_service_store.py`` holds
    that), so the wall-clock numbers are the whole story."""
    import tempfile

    from repro.service.store import SolverKnowledgeStore
    from repro.symex import SharedSolverCaches, Solver
    from repro.verification import VerificationRequest, make_backend

    modules = [compile_source(WC_PROGRAM, CompileOptions(level=level)).module
               for level in WC_LEVELS]
    limits = SymexLimits(timeout_seconds=TIMEOUT_SECONDS)
    section: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "knowledge.jsonl"

        cold_times = []
        for round_index in range(3):
            per_round_caches = []
            total = 0.0
            for module in modules:
                caches = SharedSolverCaches(num_stripes=1)
                start = time.perf_counter()
                explore(module, WC_INPUT_BYTES, limits=limits,
                        solver=Solver(shared=caches))
                total += time.perf_counter() - start
                per_round_caches.append(caches)
            cold_times.append(total)
            if round_index == 0:
                store = SolverKnowledgeStore(store_path)
                for caches in per_round_caches:
                    store.absorb(caches)
                store.save()
                section["store_records"] = len(store)

        warm_times = []
        prime_times = []
        store_hits = 0
        for _ in range(3):
            total = 0.0
            prime_total = 0.0
            store_hits = 0
            for module in modules:
                prime_start = time.perf_counter()
                store = SolverKnowledgeStore(store_path)
                store.load()
                caches = SharedSolverCaches(num_stripes=1)
                store.prime(caches)
                prime_total += time.perf_counter() - prime_start
                start = time.perf_counter()
                report = explore(module, WC_INPUT_BYTES, limits=limits,
                                 solver=Solver(shared=caches))
                total += time.perf_counter() - start
                store_hits += report.solver_stats.store_hits
            warm_times.append(total)
            prime_times.append(prime_total)

        request = VerificationRequest(symbolic_input_bytes=WC_INPUT_BYTES,
                                      timeout_seconds=TIMEOUT_SECONDS)
        for module in modules:  # populate the memos (untimed)
            make_backend("symex", store=str(store_path)) \
                .verify(module, request)
        memo_times = []
        for _ in range(3):
            total = 0.0
            for module in modules:
                backend = make_backend("symex", store=str(store_path))
                start = time.perf_counter()
                outcome = backend.verify(module, request)
                total += time.perf_counter() - start
                assert outcome.provenance == "memo-hit"
            memo_times.append(total)

    section.update({
        "cold_sweep_seconds": round(min(cold_times), 3),
        "warm_sweep_seconds": round(min(warm_times), 3),
        "prime_seconds": round(min(prime_times), 3),
        "memo_sweep_seconds": round(min(memo_times), 3),
        "warm_store_hits": store_hits,
        "warm_speedup": round(min(cold_times) / max(min(warm_times), 1e-9),
                              2),
    })
    return section


def _relcheck_trajectory() -> dict:
    """The translation-validation trajectory: relchecking wc's
    (-O0, -OVERIFY) pair cold, warm (solver caches primed from the cold
    run's store), and memoized (the whole-run memo answering without any
    exploration).  Verdicts are identical across the three by contract
    (``tests/test_relcheck.py`` and ``benchmarks/test_relcheck_bench.py``
    hold that); the wall-clock triple records how much of a re-check the
    store amortizes away.  Best of three rounds each."""
    import tempfile

    from repro.relcheck import RelcheckConfig, relcheck_modules
    from repro.service.store import SolverKnowledgeStore
    from repro.symex import SharedSolverCaches

    config = RelcheckConfig(input_bytes=WC_INPUT_BYTES,
                            timeout_seconds=TIMEOUT_SECONDS)
    module_a = compile_source(WC_PROGRAM,
                              CompileOptions(level=OptLevel.O0)).module
    module_b = compile_source(WC_PROGRAM,
                              CompileOptions(level=OptLevel.OVERIFY)).module
    section: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "knowledge.jsonl"

        cold_times = []
        for round_index in range(3):
            store = SolverKnowledgeStore(store_path) if round_index == 0 \
                else None
            start = time.perf_counter()
            report = relcheck_modules(module_a, module_b, config=config,
                                      pair=("-O0", "-OVERIFY"), store=store)
            cold_times.append(time.perf_counter() - start)
            assert report.clean and not report.truncated
            if round_index == 0:
                section["paths_proved"] = report.stats.paths_proved
                section["equivalence_folded"] = \
                    report.stats.equivalence_folded

        # Warm: solver caches primed from the cold run's store, but no
        # store handed to the run itself — so the whole-run memo cannot
        # short-circuit and the primed-cache speedup is what's measured.
        warm_times = []
        for _ in range(3):
            store = SolverKnowledgeStore(store_path)
            store.load()
            caches = SharedSolverCaches(num_stripes=1)
            store.prime(caches)
            start = time.perf_counter()
            report = relcheck_modules(module_a, module_b, config=config,
                                      pair=("-O0", "-OVERIFY"),
                                      shared_caches=caches)
            warm_times.append(time.perf_counter() - start)
            assert report.clean and not report.truncated

        memo_times = []
        for _ in range(3):
            store = SolverKnowledgeStore(store_path)
            store.load()
            start = time.perf_counter()
            report = relcheck_modules(module_a, module_b, config=config,
                                      pair=("-O0", "-OVERIFY"), store=store)
            memo_times.append(time.perf_counter() - start)
            assert report.provenance == "memo-hit"

    section.update({
        "cold_seconds": round(min(cold_times), 3),
        "warm_seconds": round(min(warm_times), 3),
        "memo_seconds": round(min(memo_times), 3),
    })
    return section


def _fault_overhead() -> dict:
    """The unarmed-injector guard: with no fault plan installed, the
    fault sites threaded through the solver/executor/pool hot paths must
    be free — the wc sweep reproduces the benchmark's exact per-level
    path counts with zero engine errors, and the sweep's wall clock is
    recorded so the trajectory would expose a guard that grew teeth."""
    import repro.service.server  # noqa: F401 - registers the service sites
    from repro.faults import INJECTOR

    armed = INJECTOR.armed()
    assert armed == [], f"fault injector armed during benchmarking: {armed}"
    section: dict = {"registered_sites": len(INJECTOR.registered()),
                     "armed_sites": 0}
    total = 0.0
    for level in WC_LEVELS:
        compiled = compile_source(WC_PROGRAM, CompileOptions(level=level))
        start = time.perf_counter()
        report = explore(compiled.module, WC_INPUT_BYTES,
                         limits=SymexLimits(timeout_seconds=TIMEOUT_SECONDS))
        seconds = time.perf_counter() - start
        total += seconds
        paths = report.stats.total_paths
        assert paths == WC_SWEEP_PATHS[level], (
            f"{level}: {paths} paths with the injector disarmed, expected "
            f"{WC_SWEEP_PATHS[level]} — the fault guards changed behaviour")
        assert report.stats.engine_errors == 0, \
            f"{level}: engine errors with no fault plan installed"
        section[str(level)] = {"paths": paths,
                               "verify_seconds": round(seconds, 3)}
    section["sweep_seconds"] = round(total, 3)
    return section


def measure(label: str) -> dict:
    entry: dict = {"label": label,
                   "recorded_at": datetime.now(timezone.utc)
                   .strftime("%Y-%m-%dT%H:%M:%SZ")}
    try:
        entry["commit"] = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass

    sweep = {}
    total = 0.0
    for level in WC_LEVELS:
        compiled = compile_source(WC_PROGRAM, CompileOptions(level=level))
        start = time.perf_counter()
        report = explore(compiled.module, WC_INPUT_BYTES,
                         limits=SymexLimits(timeout_seconds=TIMEOUT_SECONDS))
        seconds = time.perf_counter() - start
        total += seconds
        sweep[str(level)] = _solver_summary(report, seconds)
    entry["wc_sweep"] = sweep
    entry["wc_sweep_total_verify_seconds"] = round(total, 3)

    # Per-pass path attribution: rerun the -O2 pipeline with each of the
    # path-oriented passes ablated and record how many paths (and
    # interpreted instructions) the full pipeline saves over each ablation.
    # A zero paths_saved entry is information, not a bug: on all-scalar wc
    # the pass may only shrink instruction counts, with its path wins
    # reserved for flag-through-memory workloads.
    entry["pass_path_deltas"] = _pass_path_deltas(
        sweep[str(OptLevel.O2)]["paths"])

    module = compile_to_ir(BRANCH_HEAVY_PROGRAM)
    start = time.perf_counter()
    report = explore(module, INPUT_BYTES,
                     limits=SymexLimits(timeout_seconds=TIMEOUT_SECONDS))
    seconds = time.perf_counter() - start
    branch_heavy = _solver_summary(report, seconds)
    branch_heavy["branches"] = report.stats.branches_encountered
    entry["branch_heavy"] = branch_heavy

    module = compile_to_ir(WIDE_VALUE_PROGRAM)
    start = time.perf_counter()
    report = explore(module, 2,
                     limits=SymexLimits(timeout_seconds=TIMEOUT_SECONDS))
    seconds = time.perf_counter() - start
    wide = _solver_summary(report, seconds)
    wide["exact"] = report.solver_stats.unknown_results == 0
    entry["wide_value"] = wide

    # The cross-run amortization trajectory: cold vs store-warmed vs
    # memoized wc sweeps (see docs/service.md).
    entry["warm_store"] = _warm_store_trajectory()

    # The translation-validation trajectory: relchecking the paper's
    # (-O0, -OVERIFY) pair cold vs store-warmed vs memoized
    # (see docs/relcheck.md).
    entry["relcheck"] = _relcheck_trajectory()

    # The robustness guard: fault sites cost nothing while disarmed
    # (see docs/robustness.md).
    entry["fault_overhead"] = _fault_overhead()
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="unlabelled run",
                        help="human-readable tag for this measurement")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_symex.json",
                        help="JSON file to append the entry to")
    parser.add_argument("--fault-overhead", action="store_true",
                        help="run only the unarmed-injector guard (assert "
                             "the disarmed wc sweep hits the benchmark path "
                             "counts), print it, append nothing")
    args = parser.parse_args()

    if args.fault_overhead:
        print(json.dumps({"fault_overhead": _fault_overhead()}, indent=2))
        return

    history = []
    if args.output.exists():
        history = json.loads(args.output.read_text())
        if not isinstance(history, list):
            raise SystemExit(f"{args.output} is not a JSON list")

    entry = measure(args.label)
    history.append(entry)
    args.output.write_text(json.dumps(history, indent=2) + "\n")
    print(json.dumps(entry, indent=2))
    print(f"\nappended entry {len(history)} to {args.output}")


if __name__ == "__main__":
    main()
