"""End-to-end and per-layer metrics of one benchmark run.

End-to-end metrics come from job records alone, so the untraced run has
them.  Per-layer metrics add the traced run's spans to the counters the
program's public API returns (``SolverStats``, ``PassRunRecord``,
``SymexStats``, ``AnalysisManagerStats``,
``RelcheckStats`` and the service's ``stats`` op).  Every ``*_s``
per-layer metric is a total over the run; shares and rates carry their
base in the name.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from tracing import summarize

#: (name, unit, better) of every end-to-end metric, as BENCHMARK.json
#: lists them.
END_TO_END = (
    ("verdict_p50_s", "s", "lower"),
    ("verdict_p90_s", "s", "lower"),
    ("verdicts_per_s", "1/s", "higher"),
    ("decided_share", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: The registered passes (``repro.passes.registry.pass_names()``).
PASS_NAMES = (
    "algebraic-simplify", "annotate", "constprop", "dce", "globaldce", "gvn",
    "ifconvert", "inline", "instcombine", "jump-threading", "licm",
    "load-elim", "loop-unroll", "loop-unswitch", "mem2reg", "runtime-checks",
    "sccp", "simplifycfg", "sroa",
)

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("frontend.parse_s", "s"), ("frontend.sema_s", "s"),
    ("frontend.lower_s", "s"), ("frontend.tokens_per_s", "1/s"),
    ("frontend.parses", "count"),
) + tuple(metric for name in PASS_NAMES for metric in (
    (f"pass.{name}.self_s", "s"), (f"pass.{name}.runs", "count"))) + (
    ("pipeline.pass_runs", "count"), ("pipeline.changed_share", "ratio"),
    ("analysis.compute_s", "s"), ("analysis.hit_rate", "ratio"),
    ("analysis.transfers", "count"), ("analysis.invalidations", "count"),
    ("pipeline.compile_s", "s"), ("ir.verify_s", "s"),
    ("ir.instructions_out", "count"),
    ("symex.explore_s", "s"), ("symex.step_s", "s"),
    ("symex.paths", "count"), ("symex.forks", "count"),
    ("symex.instructions_per_s", "1/s"), ("symex.budget_hits", "count"),
    ("symex.budget_overrun_s", "s"), ("symex.engine_errors", "count"),
    ("solver.time_s", "s"), ("solver.queries", "count"),
    ("solver.cache_hit_rate", "ratio"), ("solver.ubtree_hit_rate", "ratio"),
    ("solver.assignments", "count"), ("solver.cores_minimized", "count"),
    ("solver.unknown_share", "ratio"), ("solver.query_deadlines", "count"),
    ("interp.replay_s", "s"), ("interp.replays", "count"),
    ("interp.confirmed_share", "ratio"),
    ("relcheck.prove_s", "s"), ("relcheck.explore_s", "s"),
    ("relcheck.replay_s", "s"), ("relcheck.proved_share", "ratio"),
    ("relcheck.equivalence_queries", "count"),
    ("relcheck.equivalence_folded", "count"),
    ("relcheck.unknown_paths", "count"), ("relcheck.phantom_paths", "count"),
    ("service.queue_wait_s", "s"), ("service.server_s", "s"),
    ("service.memo_hit_share", "ratio"), ("service.warm_share", "ratio"),
    ("service.dedupe_share", "ratio"), ("service.rejected", "count"),
    ("store.load_s", "s"), ("store.prime_s", "s"), ("store.absorb_s", "s"),
    ("store.save_s", "s"), ("store.fingerprint_s", "s"),
    ("store.records", "count"), ("store.bytes", "bytes"),
    ("jobs.failed_limit", "count"), ("jobs.failed_budget", "count"),
    ("jobs.failed_engine", "count"), ("jobs.failed_wrong", "count"),
    ("trace.spans", "count"), ("trace.wrapper_cost_share", "ratio"),
)

#: Failure causes, in the order they are reported.
CAUSES = ("limit", "budget", "engine", "wrong")

#: Fewest samples beyond a percentile for it to be reported as measured.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    return ordered[rank - 1]


def supported_fraction(samples: int) -> float:
    """The highest percentile with at least ``TAIL_SAMPLES`` samples
    beyond it (0 when there are too few samples for any)."""
    if samples < TAIL_SAMPLES:
        return 0.0
    return 1.0 - TAIL_SAMPLES / samples


def p90_supported(samples: int) -> bool:
    """p90 needs at least 100 samples."""
    return supported_fraction(samples) >= 0.9 - 1e-12


def nominal_seconds(record: dict,
                    factor: Callable[[float, float], float]) -> float:
    """A job's latency at nominal CPU speed: divided by the CPU's
    slowness factor over its interval (``speed.py``)."""
    started = record["started"]
    return record["latency_s"] / factor(started,
                                        started + record["latency_s"])


def mark_late(records: Iterable[dict], limit: float,
              factor: Callable[[float, float], float]) -> None:
    """Fail, in place, every job that returned a right verdict within the
    hard (wall-clock) limit but took longer than ``limit``, the job limit
    L, at nominal CPU speed.  Judged at nominal speed, whether a job is
    decided follows from its work, not from the speed its CPU happened to
    run at."""
    for record in records:
        if record["cause"]:
            continue
        nominal = nominal_seconds(record, factor)
        if nominal > limit:
            record["cause"] = "limit"
            record["detail"] = f"{nominal:.3f}s at nominal speed, over L"


def charged_latency(record: dict,
                    factor: Callable[[float, float], float]) -> float:
    """A job's latency for the percentiles.  A decided job's time is
    divided by the CPU's slowness factor over its interval (``speed.py``);
    a failed job counts at the hard limit, a wall-clock bound, or at its
    measured time when that is longer."""
    if record["cause"]:
        return max(record["latency_s"], record["limit_s"])
    return nominal_seconds(record, factor)


def end_to_end(records: Sequence[dict], wall_s: float, setup_s: float,
               peak_mb: float, factor: Callable[[float, float], float],
               concurrent: bool) -> Dict[str, float]:
    """The end-to-end metrics.  ``concurrent`` jobs overlap in time (the
    service clients), so their wall time is rescaled as a whole; local
    jobs run back to back, so only the decided jobs' share of it is."""
    samples = [charged_latency(record, factor) for record in records]
    decided = [record for record in records if not record["cause"]]
    if concurrent:
        start = min(record["started"] for record in records)
        wall_at_nominal = wall_s / factor(start, start + wall_s)
    else:
        wall_at_nominal = wall_s + sum(
            charged_latency(record, factor) - record["latency_s"]
            for record in decided)
    return {
        "verdict_p50_s": percentile(samples, 0.5),
        "verdict_p90_s": percentile(samples, 0.9),
        "verdicts_per_s": len(decided) / wall_at_nominal,
        "decided_share": len(decided) / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }


def failure_counts(records: Iterable[dict]) -> Dict[str, int]:
    counts = {cause: 0 for cause in CAUSES}
    for record in records:
        if record["cause"]:
            counts[record["cause"]] += 1
    return counts


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(records: Sequence[dict], spans: Sequence[tuple],
              token_count, service_stats: Optional[Dict[str, object]],
              wall_s: float, wrapper_cost_s: float) -> Dict[str, float]:
    """Every per-layer metric (0 where the layer did no work).
    ``spans`` are all spans of the run (job children and server);
    ``token_count`` maps a parsed source to its token count."""
    summary = summarize(spans)

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    def count(name: str) -> int:
        return int(summary.get(name, {}).get("count", 0))

    counters: Dict[str, float] = {}
    for record in records:
        for key, value in record.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
    responses = [record["response"] for record in records
                 if record.get("response") is not None]
    for response in responses:
        if response["provenance"] == "memo-hit" or response.get("deduped"):
            continue
        counters["paths"] = counters.get("paths", 0) + response["paths"]
        counters["instructions"] = counters.get("instructions", 0) \
            + response["instructions"]
        counters["budget_hits"] = counters.get("budget_hits", 0) \
            + (1 if response["termination_reason"] else 0)
        counters["engine_errors"] = counters.get("engine_errors", 0) \
            + response["engine_errors"]
        # The service reports verify time, so its step time is known too.
        counters["explore_s"] = counters.get("explore_s", 0.0) \
            + response["verify_seconds"]
        for name, value in response.get("solver", {}).items():
            key = f"solver.{name}"
            counters[key] = counters.get(key, 0) + value

    def counter(name: str) -> float:
        return counters.get(name, 0)

    metrics: Dict[str, float] = {}
    parse_s = self_s("frontend.parse")
    tokens = sum(token_count(span[5]) for span in spans
                 if span[0] == "frontend.parse" and span[5] is not None)
    metrics.update({
        "frontend.parse_s": parse_s,
        "frontend.sema_s": self_s("frontend.sema"),
        "frontend.lower_s": self_s("frontend.lower"),
        "frontend.tokens_per_s": _share(tokens, parse_s),
        "frontend.parses": count("frontend.parse"),
    })
    pass_runs = 0
    for name in PASS_NAMES:
        metrics[f"pass.{name}.self_s"] = self_s(f"pass.{name}")
        metrics[f"pass.{name}.runs"] = count(f"pass.{name}")
        pass_runs += count(f"pass.{name}")
    analysis_requests = counter("analysis_hits") + counter("analysis_misses")
    explore_s = total_s("symex.explore")
    # Relcheck jobs explore through the parallel executor; their solver
    # time belongs to relcheck, so step time uses the other jobs' only.
    symex_solver_s = sum(
        record["counters"].get("solver.time_seconds", 0.0)
        for record in records if "explore_s" in record.get("counters", {}))
    symex_solver_s += sum(
        response.get("solver", {}).get("time_seconds", 0.0)
        for response in responses
        if response["provenance"] != "memo-hit"
        and not response.get("deduped"))
    ubtree = counter("solver.ubtree_hits") + counter("solver.ubtree_misses")
    queries = counter("solver.queries")
    overrun = sum(record["latency_s"] - record["limit_s"]
                  for record in records
                  if record.get("returned", True)
                  and record["cause"] == "budget"
                  and record["latency_s"] > record["limit_s"])
    prove_s = total_s("relcheck.prove")
    relcheck_explore_s = total_s("symex.parallel_run")
    checked = counter("relcheck.paths_checked") \
        + counter("relcheck.trap_paths_checked")
    proved = counter("relcheck.paths_proved") \
        + counter("relcheck.trap_agreements")
    metrics.update({
        "pipeline.pass_runs": pass_runs,
        "pipeline.changed_share": _share(counter("pass_changed"),
                                         counter("pass_runs")),
        "analysis.compute_s": sum(entry["self_s"] for name, entry
                                  in summary.items()
                                  if name.startswith("analysis.")),
        "analysis.hit_rate": _share(counter("analysis_hits"),
                                    analysis_requests),
        "analysis.transfers": counter("analysis_transfers"),
        "analysis.invalidations": counter("analysis_invalidations"),
        "pipeline.compile_s": total_s("pipeline.compile"),
        "ir.verify_s": self_s("ir.verify"),
        "ir.instructions_out": counter("instructions_out"),
        "symex.explore_s": explore_s,
        "symex.step_s": max(explore_s - symex_solver_s, 0.0),
        "symex.paths": counter("paths"),
        "symex.forks": counter("forks"),
        "symex.instructions_per_s": _share(counter("instructions"),
                                           explore_s),
        "symex.budget_hits": counter("budget_hits"),
        "symex.budget_overrun_s": overrun,
        "symex.engine_errors": counter("engine_errors"),
        "solver.time_s": counter("solver.time_seconds"),
        "solver.queries": queries,
        # Hits per cache lookup: every query and group sub-query looks.
        "solver.cache_hit_rate": _share(
            counter("solver.cache_hits"),
            queries + counter("solver.group_queries")),
        "solver.ubtree_hit_rate": _share(counter("solver.ubtree_hits"),
                                         ubtree),
        "solver.assignments": counter("solver.assignments_tried"),
        "solver.cores_minimized": counter("solver.cores_minimized"),
        "solver.unknown_share": _share(counter("solver.unknown_results"),
                                       queries),
        "solver.query_deadlines": counter("solver.query_deadlines"),
        "interp.replay_s": self_s("interp.run_module"),
        "interp.replays": counter("replays"),
        "interp.confirmed_share": _share(counter("replays_confirmed"),
                                         counter("replays")),
        "relcheck.prove_s": prove_s,
        "relcheck.explore_s": relcheck_explore_s,
        "relcheck.replay_s": max(prove_s - relcheck_explore_s, 0.0),
        "relcheck.proved_share": _share(proved, checked),
        "relcheck.equivalence_queries":
            counter("relcheck.equivalence_queries"),
        "relcheck.equivalence_folded": counter("relcheck.equivalence_folded"),
        "relcheck.unknown_paths": counter("relcheck.unknown_paths"),
        "relcheck.phantom_paths": counter("relcheck.phantom_paths"),
    })

    answered = len(responses)
    fresh = [response for response in responses
             if not response.get("deduped")]
    stats = service_stats or {}
    metrics.update({
        "service.queue_wait_s": sum(
            max(record["latency_s"] - record["response"]["wall_seconds"],
                0.0) for record in records
            if record.get("response") is not None),
        "service.server_s": sum(response["wall_seconds"]
                                for response in fresh),
        "service.memo_hit_share": _share(sum(
            1 for response in fresh
            if response["provenance"] == "memo-hit"), answered),
        "service.warm_share": _share(sum(
            1 for response in fresh
            if response["provenance"] == "warm-store"), answered),
        "service.dedupe_share": _share(answered - len(fresh), answered),
        "service.rejected": stats.get("jobs_rejected", 0),
        "store.load_s": self_s("store.load"),
        "store.prime_s": self_s("store.prime"),
        "store.absorb_s": self_s("store.absorb"),
        "store.save_s": self_s("store.save"),
        "store.fingerprint_s": self_s("store.fingerprint"),
        "store.records": stats.get("store_records", 0),
        "store.bytes": stats.get("store_bytes", 0),
    })
    failures = failure_counts(records)
    for cause in CAUSES:
        metrics[f"jobs.failed_{cause}"] = failures[cause]
    metrics["trace.spans"] = len(spans)
    # The calibrated cost of the wrappers alone: it leaves out their
    # garbage-collector and cache effects, which the traced-minus-untraced
    # difference in README.md includes.
    metrics["trace.wrapper_cost_share"] = _share(
        len(spans) * wrapper_cost_s, wall_s)
    return metrics


def layer_work(values: Dict[str, float]) -> Dict[str, float]:
    """Seconds of the run each layer spent, from the per-layer metrics.
    Not additive: relcheck's time includes the exploration and solving it
    drives, and the service's is the server's job time left after its
    compiles, verifications and store calls."""
    store = sum(values[f"store.{name}_s"] for name in
                ("load", "prime", "absorb", "save", "fingerprint"))
    server = values["service.server_s"]
    return {
        "frontend": values["frontend.parse_s"] + values["frontend.sema_s"]
        + values["frontend.lower_s"],
        "passes": sum(values[f"pass.{name}.self_s"] for name in PASS_NAMES),
        "analysis": values["analysis.compute_s"],
        "ir": values["ir.verify_s"],
        "symex": values["symex.step_s"],
        "solver": values["solver.time_s"],
        "interp": values["interp.replay_s"],
        "relcheck": values["relcheck.prove_s"],
        "service": max(server - values["pipeline.compile_s"]
                       - values["symex.explore_s"] - store, 0.0)
        if server else 0.0,
        "store": store,
    }
