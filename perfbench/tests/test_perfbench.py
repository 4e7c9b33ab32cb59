"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import pytest  # noqa: E402

import jobs  # noqa: E402
import local  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
from oracle import Oracle, check_verdict, replay_bugs  # noqa: E402


# ------------------------------------------------------------- job lists

@pytest.mark.parametrize("make", [jobs.compile_heavy, jobs.verify_heavy,
                                  jobs.relcheck_sweep, jobs.service_mix])
def test_seed_fixes_the_job_list(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_local_passes_cover_the_registry():
    from repro.workloads import workload_names

    names = sorted(workload_names())
    assert sorted(job.program for job in jobs.compile_heavy(3)) == names
    assert sorted(job.program for job in jobs.relcheck_sweep(3)) == names
    assert len(jobs.verify_heavy(3)) == 2 * len(names)
    # A later pass is another order of the same jobs.
    assert sorted(job.program for job in jobs.compile_heavy(3, 1)) == names
    # The pass count follows from --seconds, not from the clock.
    assert jobs.passes_for("compile-heavy", 15) == 1
    assert jobs.passes_for("verify-heavy", 1) == 1
    two = jobs.local_jobs("relcheck-sweep", 3,
                          2 * jobs.PASS_SECONDS["relcheck-sweep"])
    assert two == jobs.relcheck_sweep(3, 0) + jobs.relcheck_sweep(3, 1)


def test_service_mix_shape():
    plans = jobs.service_mix(5)
    assert len(plans) == 2
    kinds = {request.kind for plan in plans for request in plan}
    assert kinds == {"cold", "memo", "noop", "semantic", "dup"}
    # Duplicates sit at the same position in both sequences.
    for first, second in zip(*plans):
        assert (first.kind == "dup") == (second.kind == "dup")
        if first.kind == "dup":
            assert first.answer_key == second.answer_key
    # A first submission is never made by both clients.
    colds = [(r.program, r.level) for plan in plans for r in plan
             if r.kind == "cold"]
    assert len(colds) == len(set(colds))
    # Every kind has the same count in each block (the first block turns
    # anything before a client's first submission into one).
    for plan in plans:
        assert len(plan) == 3 * jobs.BLOCK
        for start in range(jobs.BLOCK, len(plan), jobs.BLOCK):
            block = [request.kind for request in
                     plan[start:start + jobs.BLOCK]]
            assert all(block.count(kind) == jobs.PER_KIND
                       for kind in jobs.KINDS)


def test_edits_compile_and_noop_edit_keeps_the_ir():
    from repro.ir import print_module
    from repro.pipelines import CompilerSession, OptLevel
    from repro.workloads import get_workload

    source = get_workload("wc").source
    session = CompilerSession()
    base = session.compile(source, level=OptLevel.OVERIFY).module
    noop = session.compile(jobs.edited_source(source, "noop:3"),
                           level=OptLevel.OVERIFY).module
    guard = session.compile(jobs.edited_source(source, "guard:65"),
                            level=OptLevel.OVERIFY).module
    assert print_module(noop) == print_module(base)
    assert print_module(guard) != print_module(base)
    assert jobs.guard_byte("guard:65") == 65
    assert jobs.guard_byte("noop:3") is None


# ---------------------------------------------------------------- oracle

def test_oracle_flags_a_planted_wrong_verdict():
    """-O2 with ``dce<unsafe-traps>`` in place of ``dce`` deletes
    fuzz-dce-trapping-div's division, so the module never traps: its
    verdict must be flagged, while plain -O2's passes."""
    import re

    from repro.frontend import compile_to_ir
    from repro.pipelines import (
        CompileOptions, OptLevel, build_pipeline_from_text, level_spec_string,
        link_sources,
    )
    from repro.verification import VerificationRequest, make_backend
    from repro.workloads import get_workload

    oracle = Oracle()
    source = link_sources(get_workload("fuzz-dce-trapping-div").source,
                          CompileOptions())
    pipeline = level_spec_string(OptLevel.O2)
    planted = re.sub(r"(?<![a-z])dce(?![a-z<])", "dce<unsafe-traps>",
                     pipeline)
    verdicts = []
    for text in (pipeline, planted):
        module = compile_to_ir(source)
        build_pipeline_from_text(text).run_until_fixpoint(module)
        outcome = make_backend("symex").verify(
            module, VerificationRequest(symbolic_input_bytes=3))
        assert not outcome.termination_reason
        replays = replay_bugs(module, outcome.detail.bugs, oracle)
        verdicts.append(check_verdict(
            oracle.expected("fuzz-dce-trapping-div", 3),
            oracle.classes_of(outcome.bug_signatures), replays))
    assert verdicts[0] == ""
    assert "expected ['division-by-zero']" in verdicts[1]


def test_oracle_flags_a_witness_that_does_not_trap():
    from repro.interp import ErrorKind
    from repro.pipelines import CompilerSession, OptLevel
    from repro.symex.executor import BugReport
    from repro.workloads import get_workload

    oracle = Oracle()
    module = CompilerSession().compile(get_workload("buggy_div").source,
                                       level=OptLevel.O0).module
    good = BugReport(ErrorKind.DIVISION_BY_ZERO, "", "main", "b", b"0")
    bad = BugReport(ErrorKind.DIVISION_BY_ZERO, "", "main", "b", b"7")
    replays = replay_bugs(module, [good, bad], oracle)
    assert [replay["confirmed"] for replay in replays] == [True, False]
    verdict = check_verdict(frozenset({"division-by-zero"}),
                            frozenset({"division-by-zero"}), replays)
    assert "does not trap" in verdict


def test_oracle_guard_expectations():
    oracle = Oracle()
    assert oracle.expected("buggy_div", 1, guard=0x30) == {"division-by-zero"}
    assert oracle.expected("buggy_div", 1, guard=0x31) == frozenset()
    assert oracle.expected("fuzz-dce-trapping-div", 1, guard=200) == \
        {"memory-safety"}
    assert oracle.class_of("runtime check failure") == "memory-safety"
    assert oracle.class_of("null pointer dereference") == "memory-safety"


# ----------------------------------------------------------- job children

def test_jobs_import_nothing_the_parent_has_not():
    """Every module a job uses is imported at set-up, so no forked job
    child pays for an import (which a traced run, whose wrappers import
    the layers up front, would not)."""
    import subprocess

    script = (
        "import sys\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {BENCH_DIR!r}]\n"
        "import jobs, local, oracle\n"
        "from repro.pipelines import CompilerSession\n"
        "before = set(sys.modules)\n"
        "check = oracle.Oracle()\n"
        "job = jobs.LocalJob('j', 'buggy_div', jobs.PAIR_LEVELS, 1)\n"
        "for unit in local.units_of('verify-heavy', job):\n"
        "    local.build_unit(job, unit, 5.0, check, CompilerSession())\n"
        "local.relcheck_unit(job, jobs.PAIR_LEVELS, 5.0, check,\n"
        "                    CompilerSession())\n"
        "print(sorted(set(sys.modules) - before))\n")
    output = subprocess.run([sys.executable, "-c", script], check=True,
                            capture_output=True, text=True).stdout
    assert output.strip().splitlines()[-1] == "[]"


# ------------------------------------------------------------ hard limit

def test_hard_limit_kills_a_job_that_ignores_its_budget(monkeypatch):
    def stuck(job, unit, limit, oracle, session):
        time.sleep(60)  # never looks at its budget

    monkeypatch.setattr(local, "build_unit", stuck)
    job = jobs.LocalJob("stuck", "wc", (jobs.PAIR_LEVELS[0],), 1)
    start = time.perf_counter()
    records, _ = local.run_job("verify-heavy", job, 0.2, Oracle(), None)
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    assert len(records) == 1
    record = records[0]
    assert record["cause"] == "limit" and not record["returned"]
    assert record["latency_s"] >= 0.2 + local.GRACE_S


def test_a_killed_unit_restarts_the_rest_of_its_chain(monkeypatch):
    real = local.build_unit

    def stuck_at_o1(job, unit, limit, oracle, session):
        if str(unit[0]) == "-O1":
            time.sleep(60)
        return real(job, unit, limit, oracle, session)

    monkeypatch.setattr(local, "build_unit", stuck_at_o1)
    job = jobs.compile_heavy(0)[0]
    job = jobs.LocalJob(job.ident, "true", job.levels, 1)
    records, _ = local.run_job("compile-heavy", job, 1.5, Oracle(), None)
    assert [record["level"] for record in records] == \
        [str(level) for level in jobs.CHAIN_LEVELS]
    assert [record["cause"] for record in records] == \
        ["", "limit", "", "", ""]


# ------------------------------------------------------------ percentiles

def test_percentile_and_sample_count_rule():
    values = [float(v) for v in range(1, 101)]
    assert metrics.percentile(values, 0.5) == 50.0
    assert metrics.percentile(values, 0.9) == 90.0
    assert metrics.percentile([3.0], 0.9) == 3.0
    assert metrics.p90_supported(100)
    assert not metrics.p90_supported(99)
    assert metrics.supported_fraction(50) == pytest.approx(0.8)
    assert metrics.supported_fraction(9) == 0.0

    def nominal(start, end):
        return 1.0

    failed = {"cause": "limit", "latency_s": 0.2, "limit_s": 1.0,
              "started": 0.0}
    late = {"cause": "limit", "latency_s": 1.3, "limit_s": 1.0,
            "started": 0.0}
    assert metrics.charged_latency(failed, nominal) == 1.0
    assert metrics.charged_latency(late, nominal) == 1.3
    records = [{"cause": "", "latency_s": 0.1, "limit_s": 1.0,
                "started": 0.1 * i} for i in range(9)] + [failed]
    values = metrics.end_to_end(records, wall_s=2.0, setup_s=0.5,
                                peak_mb=10.0, factor=nominal,
                                concurrent=False)
    assert values["decided_share"] == pytest.approx(0.9)
    assert values["verdicts_per_s"] == pytest.approx(4.5)
    assert values["verdict_p50_s"] == pytest.approx(0.1)
    assert values["verdict_p90_s"] == pytest.approx(0.1)


def test_speed_factor_rescales_decided_jobs_only():
    import speed

    log = speed.SpeedLog()
    log.samples = [(float(t), 2.0 if t < 10 else 1.0) for t in range(20)]
    assert log.factor(2.0, 2.1) == 2.0          # widened to WINDOW_S
    assert log.factor(14.0, 18.0) == 1.0
    assert log.factor(100.0, 100.1) == 1.0      # nearest sample
    sparse = speed.SpeedLog()
    sparse.samples = [(0.0, 2.0), (10.0, 1.0), (20.0, 4.0)]
    # No sample inside: the nearest one on either side.
    assert sparse.factor(4.0, 6.0) == pytest.approx(1.5)
    assert sparse.factor(9.0, 11.0) == pytest.approx(7 / 3)
    decided = {"cause": "", "latency_s": 0.4, "limit_s": 1.0,
               "started": 3.0}
    failed = {"cause": "limit", "latency_s": 1.3, "limit_s": 1.0,
              "started": 4.0}
    assert metrics.charged_latency(decided, log.factor) == \
        pytest.approx(0.2)
    assert metrics.charged_latency(failed, log.factor) == 1.3
    values = metrics.end_to_end([decided, failed], wall_s=2.0, setup_s=0.1,
                                peak_mb=1.0, factor=log.factor,
                                concurrent=False)
    # Only the decided job's 0.4 s shrinks: 1 / (2.0 - 0.4 + 0.2).
    assert values["verdicts_per_s"] == pytest.approx(1 / 1.8)


def test_run_local_samples_between_jobs_and_peaks_decided_ones(
        monkeypatch):
    """The factor is sampled before the first job and after each, never
    while one runs, and the sampling time is left out of the wall; the
    peak memory is that of job processes whose jobs were decided."""
    import speed

    running = []

    def fake_job(workload, job, limit, oracle, tracer, during):
        running.append(job)
        time.sleep(0.01)
        running.remove(job)
        # The last job fails: its process's memory does not count.
        failed = job is job_list[-1]
        return ([{"job": job.ident, "cause": "limit" if failed else ""}],
                90 if failed else 10 + len(job.ident))

    log = speed.SpeedLog()

    def between():
        assert not running
        log.sample()
        time.sleep(0.05)

    monkeypatch.setattr(local, "run_job", fake_job)
    job_list = jobs.verify_heavy(1)[:4]
    start = time.perf_counter()
    records, wall = local.run_local("verify-heavy", job_list, 1.0,
                                    Oracle(), None, between)
    assert len(records) == 4 and len(log.samples) == 5
    assert all(value > 0 for _, value in log.samples)
    assert wall < time.perf_counter() - start - 5 * 0.05
    assert local.decided_peak_kib(records) == \
        max(10 + len(job.ident) for job in job_list[:-1])
    # A job failed after the run (over L at nominal speed) no longer counts.
    records[0]["cause"] = "limit"
    assert local.decided_peak_kib(records) == \
        max(10 + len(job.ident) for job in job_list[1:-1])
    for record in records:
        record["cause"] = "limit"
    assert local.decided_peak_kib(records) == 90


def test_job_factor_prefers_snapshots_taken_during_the_job():
    import speed

    log = speed.SpeedLog()
    log.samples = [(0.0, 1.0), (1.0, 1.0)]
    log.snapshots = [(0.2, 2.0), (0.4, 2.0), (0.6, 1.7)]
    # Three snapshots inside: their mean, not the idle samples'.
    assert log.job_factor(0.1, 0.7) == pytest.approx(1.9)
    # Too few inside: the idle samples around it.
    assert log.job_factor(0.3, 0.5) == pytest.approx(1.0)
    log.snapshot()
    assert len(log.snapshots) == 4 and log.snapshots[-1][1] > 0


def test_the_parent_takes_snapshots_while_a_job_runs():
    def slow():
        time.sleep(0.4)
        yield {"returned": True}

    calls = []
    records, stop, _, _ = local.run_forked(slow, 1, 5.0,
                                           lambda: calls.append(1))
    assert records == [{"returned": True}] and stop == ""
    assert 3 <= len(calls) <= 0.4 / 0.05 + 1


def test_jobs_over_l_at_nominal_speed_fail():
    """L is judged at nominal CPU speed: the same 0.8 s of wall time is
    within L = 0.5 s on a CPU running twice as slow, and over it on one
    running at nominal speed."""
    import speed

    log = speed.SpeedLog()
    log.samples = [(float(t), 2.0 if t < 10 else 1.0) for t in range(20)]

    def job(started, latency, cause=""):
        return {"cause": cause, "detail": "", "latency_s": latency,
                "limit_s": 1.3, "started": started}

    slow, fast, quick = job(3.0, 0.8), job(15.0, 0.8), job(15.0, 0.4)
    killed = job(16.0, 1.6, "limit")
    metrics.mark_late([slow, fast, quick, killed], 0.5, log.factor)
    assert [r["cause"] for r in (slow, fast, quick, killed)] == \
        ["", "limit", "", "limit"]
    assert fast["detail"] == "0.800s at nominal speed, over L"
    # A failed job counts at the hard limit.
    assert metrics.charged_latency(fast, log.factor) == 1.3


# ---------------------------------------------------------------- tracing

def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, "j"),
        ("a", 1.0, 3.0, 0, "j"),
        ("a.child", 1.5, 2.5, 1, "j"),
        ("b", 2.0, 5.0, 0, "j"),    # overlaps a: the union counts once
        ("c", 8.0, 12.0, 0, "j"),   # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [10.0 - (4.0 + 2.0), 1.0, 1.0, 3.0, 4.0])
    summary = tracing.summarize(spans)
    assert summary["root"]["total_s"] == pytest.approx(10.0)
    assert summary["root"]["self_s"] == pytest.approx(4.0)
    merged = tracing.merge([spans[:2], spans[:2]])
    assert [span[3] for span in merged] == [-1, 0, -1, 2]


def test_wrappers_record_nested_spans_and_restore():
    from repro.pipelines import CompilerSession, OptLevel
    from repro.pipelines import session as session_module
    from repro.workloads import get_workload

    original = session_module.CompilerSession.compile
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        tracer.begin_job("j")
        CompilerSession().compile(get_workload("true").source,
                                  level=OptLevel.O2)
    finally:
        restore()
    assert session_module.CompilerSession.compile is original
    spans = tracer.export()
    names = [span[0] for span in spans]
    assert names[0] == "pipeline.compile"
    assert "frontend.parse" in names and "pass.simplifycfg" in names
    assert all(span[3] == 0 for span in spans if span[0].startswith(
        ("frontend.", "pass.", "ir.")))


# ------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_matches_the_metrics():
    from repro.passes.registry import pass_names

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == \
        [name for name, _, _ in metrics.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(metrics.PER_LAYER)
    assert list(metrics.PASS_NAMES) == pass_names()
