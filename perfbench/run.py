#!/usr/bin/env python3
"""Source-to-verdict benchmark of the -OVERIFY reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for ``S`` seconds from the root of a checkout, checks
every verdict against ``perfbench/expected_verdicts.json`` and prints the
metrics; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` wraps the layers' public functions
and reports the per-layer metrics instead, writing a Chrome trace to
``perfbench/out/trace-NAME.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Per-workload job limit L: the seconds a job (a build, a verify-heavy
#: job, a relcheck pair or a service request) may take at nominal CPU
#: speed (``speed.py``) and still be decided.  Each sits in a gap of the
#: job times measured at HEAD at nominal speed (see README.md).
LIMITS = {
    "compile-heavy": 0.8,
    "verify-heavy": 0.48,
    "service-mix": 1.5,
    "relcheck-sweep": 0.36,
}
#: The hard limit, the engine's budget, is L in wall-clock seconds on a
#: CPU this many times slower than nominal; the parent stops a job at it
#: plus ``local.GRACE_S``.  A shared host's CPU runs up to about twice as
#: slow as nominal, so no job within L is cut by the wall clock.
SLOW_CPU = 2.6
#: Set-ups per run (this process plus fresh probe processes); the run
#: reports their median as ``setup_s``.
SETUP_REPEATS = 5


def hard_limit(workload: str) -> float:
    """A job's wall-clock limit on ``workload``."""
    return LIMITS[workload] * SLOW_CPU


def process_age() -> float:
    """Seconds since this process started."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(LIMITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and the fixture "
                             "seconds, tear down and exit (the run's "
                             "extra set-up samples)")
    return parser.parse_args(argv)


class Setup:
    """Everything a run needs before its first job can be issued."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool) -> None:
        import jobs
        import oracle
        import tracing

        self.oracle = oracle.Oracle()
        self.tracer = tracing.Tracer() if traced else None
        self.restore = tracing.install(self.tracer) if traced else None
        self.server = None
        self.peak_kib = 0
        #: Seconds spent building the benchmark's own fixture (the
        #: service's warm-up store), which set-up time leaves out, and
        #: from server start to its first ping, which it includes.
        self.fixture_s = 0.0
        self.server_start_s = 0.0
        if workload == "service-mix":
            import service_mix

            self.plans = jobs.service_mix(
                seed, service_mix.blocks_for(seconds))
            self.server = service_mix.Server(ROOT, OUT_DIR,
                                             f"svc-{os.getpid()}", traced)
            start = time.perf_counter()
            self.server.seed_store(hard_limit(workload))
            self.fixture_s = time.perf_counter() - start
            self.server.start()
            self.server_start_s = time.perf_counter() - start \
                - self.fixture_s
        else:
            import local  # noqa: F401  (with every module a job uses)

            self.jobs = jobs.local_jobs(workload, seed, seconds)

    def close(self):
        """Stop the server (if any) and undo the wrappers; returns the
        server's stats and spans."""
        stats, spans = {}, []
        if self.server is not None:
            stats, spans = self.server.stop()
            self.peak_kib = self.server.peak_kib
        if self.restore is not None:
            self.restore()
        return stats, spans


def probe_setup(args) -> tuple:
    """One more set-up in a fresh process, timed from its start; returns
    ``(start, seconds, fixture seconds)``."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stdin=subprocess.DEVNULL) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
        probe.wait()
    word, _, fixture = line.decode("ascii", "replace").partition(" ")
    if word != "ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
    return start, elapsed, float(fixture)


def run_workload(args, setup: Setup, speed_log):
    """Run the jobs set up for ``args.seconds``, sampling the CPU's speed
    whenever no job runs, and classify every job; returns (records, wall
    seconds, job-process peak KiB)."""
    import metrics

    limit = hard_limit(args.workload)
    if args.workload == "service-mix":
        import service_mix

        records, wall = service_mix.run_clients(setup.server, setup.plans,
                                                limit, speed_log.sample)
        service_mix.check_responses(records, setup.oracle)
        metrics.mark_late(records, LIMITS[args.workload],
                          speed_log.job_factor)
        return records, wall, 0
    import local

    records, wall = local.run_local(args.workload, setup.jobs, limit,
                                    setup.oracle, setup.tracer,
                                    speed_log.sample, speed_log.snapshot)
    metrics.mark_late(records, LIMITS[args.workload], speed_log.job_factor)
    return records, wall, local.decided_peak_kib(records)


def report(args, records, wall, setup_s, peak_mb, server_stats,
           server_spans, parent_spans, tracer_used, speed_log) -> dict:
    import metrics
    import tracing

    failures = metrics.failure_counts(records)
    decided = len(records) - sum(failures.values())
    samples = len(records)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"L {LIMITS[args.workload]}s at nominal speed, hard limit "
          f"{hard_limit(args.workload):.3g}s  wall {wall:.2f}s  "
          f"trace {args.trace}")
    print(f"jobs {samples} attempted, {decided} decided, "
          f"{samples - decided} failed: " + ", ".join(
              f"{cause} {count}" for cause, count in failures.items()))
    for record in records:
        if record["cause"]:
            print(f"  failed {record['job']} [{record['cause']}] "
                  f"{record['latency_s']:.3f}s {record['detail']}")
    print(f"samples {samples} (p90 "
          f"{'supported' if metrics.p90_supported(samples) else 'needs 100'}"
          f"; highest supported percentile "
          f"p{100 * metrics.supported_fraction(samples):.1f})")
    with open(os.path.join(OUT_DIR, f"jobs-{args.workload}.json"), "w",
              encoding="utf-8") as handle:
        json.dump([dict({key: record.get(key) for key in
                         ("job", "kind", "level", "cause", "detail",
                          "latency_s", "returned")},
                        nominal_s=metrics.nominal_seconds(
                            record, speed_log.job_factor))
                   for record in records], handle, indent=0)
    concurrent = args.workload == "service-mix"
    raw = metrics.end_to_end(records, wall, setup_s, peak_mb,
                             lambda start, end: 1.0, concurrent)
    timed = metrics.end_to_end(records, wall, setup_s, peak_mb,
                               speed_log.factor, concurrent)
    factors = [value for _, value in speed_log.samples]
    print(f"CPU slowness factor: median {statistics.median(factors):.3f}"
          f" over {len(factors)} samples; as measured, without it: "
          + ", ".join(f"{name} {raw[name]:.6g}" for name in
                      ("verdict_p50_s", "verdict_p90_s", "verdicts_per_s")))
    if not tracer_used:
        values = timed
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
    else:
        # The end-to-end figures of a traced run, set against an untraced
        # run of the same seed, give the tracing overhead.
        print("end to end while traced: " + ", ".join(
            f"{name} {timed[name]:.6g}" for name in
            ("verdict_p50_s", "verdict_p90_s", "verdicts_per_s")))
        # Job children's spans, plus the client calls this process made.
        spans = tracing.merge([record.get("spans", []) for record in records]
                              + [parent_spans])
        cost = tracing.wrapper_cost()
        everything = tracing.merge([spans, server_spans])
        values = metrics.per_layer(records, everything, _token_counter(),
                                   server_stats, wall, cost)
        units = dict(metrics.PER_LAYER)
        _write_trace(args, spans, server_spans, everything, records, values,
                     wall, cost, timed)
    for name, value in values.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def _token_counter():
    from repro.frontend import tokenize

    cache = {}

    def count(source: str) -> int:
        if source not in cache:
            cache[source] = len(tokenize(source))
        return cache[source]

    return count


def _write_trace(args, spans, server_spans, everything, records, values,
                 wall, cost, end_to_end):
    import metrics
    import tracing

    work = metrics.layer_work(values)
    origin = min((span[1] for span in everything), default=0.0)
    other = {
        "workload": args.workload, "seed": args.seed, "wall_s": wall,
        "wrapper_cost_s": cost,
        "wrapper_cost_share": values["trace.wrapper_cost_share"],
        # Set against an untraced run of the same seed, these give the
        # tracing overhead.
        "end_to_end_while_traced": end_to_end,
        "layer_work_s": work,
        "layer_share_of_wall": {layer: seconds / wall
                                for layer, seconds in work.items()},
        "spans": tracing.summarize(everything),
        "failed_jobs": [{key: record[key] for key in
                         ("job", "cause", "detail", "latency_s")}
                        for record in records if record["cause"]],
    }
    path = os.path.join(OUT_DIR, f"trace-{args.workload}.json")
    written = tracing.write_chrome_trace(
        path, [("jobs", spans), ("server", server_spans)], origin, other)
    print(f"trace {path} ({written} events); layer work, share of "
          f"{wall:.1f}s wall: " + ", ".join(
              f"{layer} {seconds / wall:.1%}" for layer, seconds
              in sorted(work.items(), key=lambda item: -item[1])))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    import speed

    os.makedirs(OUT_DIR, exist_ok=True)
    speed.pin()
    if args.setup_probe:
        setup = Setup(args.workload, args.seed, args.seconds, False)
        try:
            print(f"ready {setup.fixture_s!r}", flush=True)
        finally:
            setup.close()
        return 0
    traced = bool(args.trace)
    speed_log = speed.SpeedLog()
    setup = Setup(args.workload, args.seed, args.seconds, traced)
    age = process_age()
    setups = [(time.perf_counter() - age, age, setup.fixture_s)]
    server_stats, server_spans, parent_spans = {}, [], []
    try:
        records, wall, peak_kib = run_workload(args, setup, speed_log)
    finally:
        server_stats, server_spans = setup.close()
        if setup.tracer is not None:
            parent_spans = setup.tracer.export()
    # Set-up time is an end-to-end metric only: traced runs skip probes.
    for _ in range(0 if traced else SETUP_REPEATS - 1):
        setups.append(probe_setup(args))
        speed_log.sample()
    if not records:
        print("perfbench: no job finished", file=sys.stderr)
        return 1
    peak_kib = max(peak_kib, setup.peak_kib)
    setup_s = statistics.median(
        (seconds - fixture) / speed_log.factor(start, start + seconds)
        for start, seconds, fixture in setups)
    values = report(args, records, wall, setup_s, peak_kib / 1024.0,
                    server_stats, server_spans, parent_spans, traced,
                    speed_log)
    wrong = sum(1 for record in records if record["cause"] == "wrong")
    failed = sum(1 for record in records if record["cause"])
    print("set-ups as measured: "
          + ", ".join(f"{seconds:.3f}s" for _, seconds, _ in setups))
    if args.workload == "service-mix":
        print("  of which the store warm-up (left out): "
              + ", ".join(f"{fixture:.3f}s" for _, _, fixture in setups)
              + f"; server start to first ping (included, this process): "
              f"{setup.server_start_s:.3f}s")
    print(json.dumps({"correct": wrong == 0, "attempted": len(records),
                      "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
