"""Cross-level translation validation (``src/repro/relcheck/``).

Three layers of coverage:

1. **Positive sweep** — registry workloads at the paper's pair
   (-O0, -OVERIFY) and at (-O2, -O3) must relcheck with zero
   divergences.  The tier-1 default is a fast, trap-exercising subset;
   set ``RELCHECK_WORKLOADS=all`` (nightly CI) for the full registry, or
   ``RELCHECK_WORKLOADS=wc,cat`` for a specific list.
2. **Negative tests** — re-open the two fuzzer-found PR 9 miscompiles
   behind their test-only pass knobs (``dce<unsafe-traps>``,
   ``jump-threading<unsafe-phi>``) and assert relcheck catches each with
   a *replayable* counterexample: the concrete input must make the two
   modules visibly disagree under the concrete interpreter.
3. **Plumbing** — trap-deletion whitelist semantics, the
   ``SolverKnowledgeStore`` whole-run memo, and reruns whose solver
   caches are primed from a store.
"""

from __future__ import annotations

import os

import pytest

from repro.frontend import compile_to_ir
from repro.interp import run_module
from repro.pipelines import (
    CompileOptions, OptLevel, build_pipeline_from_text, compile_source,
)
from repro.relcheck import (
    RelcheckConfig, relcheck_modules, relcheck_workload,
)
from repro.service.store import SolverKnowledgeStore
from repro.workloads import get_workload, workload_names

# ------------------------------------------------------- positive sweep

PAIRS = [("O0", "OVERIFY"), ("O2", "O3")]

#: Fast subset exercising both verdict kinds: return-value paths (wc,
#: echo, yes, rev, cut) and trap-agreement paths (buggy_div,
#: buggy_index) at both pairs, each under a second.
_DEFAULT_SWEEP = ["wc", "buggy_div", "buggy_index", "echo", "true", "yes",
                  "rev", "cut"]

_SWEEP_CONFIG = RelcheckConfig(input_bytes=2, max_paths=64,
                               timeout_seconds=30.0,
                               query_deadline_seconds=1.0)


def _sweep_workloads():
    names = os.environ.get("RELCHECK_WORKLOADS", "")
    if names == "all":
        return workload_names()
    if names:
        return [name for name in names.split(",") if name]
    return _DEFAULT_SWEEP


@pytest.mark.parametrize("pair", PAIRS, ids=["O0vOVERIFY", "O2vO3"])
@pytest.mark.parametrize("name", _sweep_workloads())
def test_registry_workloads_equivalent(name, pair):
    """Every checked path of every swept workload must agree: no
    divergence verdicts at either level pair."""
    report = relcheck_workload(name, levels=pair, config=_SWEEP_CONFIG)
    assert report.clean, [d.describe() for d in report.divergences]
    assert report.stats.divergences == 0
    if os.environ.get("RELCHECK_WORKLOADS", "") == "":
        # The default subset is chosen to be exhaustively decidable: no
        # truncation, no unknowns, and at least one path positively
        # discharged (an all-unknown run would be a vacuous pass).
        # Expanded sweeps (nightly ``RELCHECK_WORKLOADS=all``) include
        # workloads whose heavier paths legitimately time out to
        # unknown; there only "zero divergences" is asserted.
        assert not report.truncated
        assert report.stats.unknown_paths == 0
        assert report.stats.phantom_paths == 0
        assert report.stats.paths_proved + report.stats.trap_agreements >= 1


@pytest.mark.parametrize("name", ["comm", "head", "join", "sort", "tsort"])
def test_pairs_with_negated_literals_prove_every_path(name):
    """These pairs' queries are shapes that literal propagation and value
    classes decide without a long search (join's replay meets
    ``zext in_1 == zext in_0`` next to its ``!=``): every path is proved,
    with no unknown answer, under a budget of paths and no query
    deadline."""
    config = RelcheckConfig(input_bytes=2, max_paths=64,
                            timeout_seconds=600.0)
    report = relcheck_workload(name, config=config)
    assert report.clean and not report.truncated
    assert report.stats.unknown_paths == 0
    assert report.stats.paths_proved == report.stats.paths_checked > 0
    assert report.solver_stats.unknown_results == 0


# -------------------------------------------- negative: planted miscompiles

_TRAPPING_DIV = """
int main(unsigned char *input, int len) {
    int t = 100 / input[0];
    return 7;
}
"""


def _plant(source: str, pipeline_text: str):
    """Reference module (straight lowering) vs the module a broken
    pipeline produces."""
    module_a = compile_to_ir(source)
    module_b = compile_to_ir(source)
    build_pipeline_from_text(pipeline_text).run(module_b)
    return module_a, module_b


def test_unsafe_dce_trap_deletion_is_caught():
    """``dce<unsafe-traps>`` deletes the (otherwise-dead) trapping
    division — the PR 9 DCE miscompile.  Relcheck must report a
    trap-deleted divergence whose counterexample concretely traps the
    reference module but not the optimized one."""
    module_a, module_b = _plant(_TRAPPING_DIV, "mem2reg,dce<unsafe-traps>")
    report = relcheck_modules(module_a, module_b,
                              config=RelcheckConfig(input_bytes=1),
                              pair=("-O0", "-Obroken"))
    assert not report.clean
    kinds = {d.kind for d in report.divergences}
    assert "trap-deleted" in kinds
    witness = next(d.counterexample for d in report.divergences
                   if d.kind == "trap-deleted")
    assert witness is not None
    # The counterexample must *replay*: concrete semantics disagree.
    result_a = run_module(module_a, witness)
    result_b = run_module(module_b, witness)
    assert result_a.crashed
    assert "division by zero" in str(result_a.error)
    assert not result_b.crashed
    assert result_b.return_value == 7


def test_whitelisted_trap_deletion_is_counted_clean():
    """The same plant with ``division by zero`` whitelisted is licensed:
    no divergence, but the deletion is still counted, never silent."""
    module_a, module_b = _plant(_TRAPPING_DIV, "mem2reg,dce<unsafe-traps>")
    config = RelcheckConfig(input_bytes=1,
                            trap_whitelist=frozenset({"division by zero"}))
    report = relcheck_modules(module_a, module_b, config=config,
                              pair=("-O0", "-Obroken"))
    assert report.clean
    assert report.stats.whitelisted_trap_deletions == 1


_LOOP_SUM = """
int main(unsigned char *input, int len) {
    int total = 0;
    for (int i = 0; i < 2; i = i + 1) {
        total = total + input[i];
    }
    return total;
}
"""


def test_unsafe_jump_threading_is_caught():
    """``jump-threading<unsafe-phi>`` threads the loop entry past the
    header, orphaning the induction phi — the PR 9 jump-threading
    miscompile.  The optimized module is broken badly enough that its
    replay may die inside the engine rather than produce a comparable
    return value, so the assertion is on the contract the ISSUE cares
    about: a divergence verdict with a counterexample input on which the
    two modules *visibly* disagree when concretely executed."""
    module_a, module_b = _plant(
        _LOOP_SUM, "mem2reg,instcombine,dce,jump-threading<unsafe-phi>,"
        "simplifycfg")
    report = relcheck_modules(module_a, module_b,
                              config=RelcheckConfig(input_bytes=2),
                              pair=("-O0", "-Obroken"))
    assert not report.clean
    witnesses = [d.counterexample for d in report.divergences
                 if d.counterexample is not None]
    assert witnesses, [d.describe() for d in report.divergences]
    witness = witnesses[0]
    result_a = run_module(module_a, witness)
    result_b = run_module(module_b, witness)
    # Reference semantics: the byte sum.  The threaded module crashes.
    assert not result_a.crashed
    assert result_a.return_value == sum(witness) & 0xFFFFFFFF
    assert result_b.crashed


# ------------------------------------------------------------- plumbing

def test_report_counts_the_replays_solver_work(monkeypatch):
    """Each replay explores on its path checker's solver, so the report's
    solver counters hold every solver's work, replays included."""
    from repro.symex import Solver, SymbolicExecutor

    solvers, replay_work = [], []
    original_init = Solver.__init__
    original_replay = SymbolicExecutor.run_seeded

    def tracked_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        solvers.append(self)

    def tracked_replay(self, state):
        before = self.solver.stats.assignments_tried
        report = original_replay(self, state)
        replay_work.append(self.solver.stats.assignments_tried - before)
        return report

    monkeypatch.setattr(Solver, "__init__", tracked_init)
    monkeypatch.setattr(SymbolicExecutor, "run_seeded", tracked_replay)
    report = relcheck_workload("head", config=RelcheckConfig(input_bytes=2))
    assert sum(replay_work) > 0
    assert report.solver_stats.assignments_tried == \
        sum(solver.stats.assignments_tried for solver in solvers)


def test_store_memo_round_trip(tmp_path):
    """A second run over an unchanged pair must be answered from the
    store's whole-run memo — same verdicts, same counters, no solving."""
    path = tmp_path / "store.jsonl"
    config = RelcheckConfig(input_bytes=2)

    store = SolverKnowledgeStore(path)
    store.load()
    cold = relcheck_workload("wc", config=config, store=store)
    assert cold.provenance == "cold"
    assert cold.clean and not cold.truncated
    store.save()

    warm_store = SolverKnowledgeStore(path)
    assert warm_store.load()
    warm = relcheck_workload("wc", config=config, store=warm_store)
    assert warm.provenance == "memo-hit"
    assert warm.clean
    assert warm.stats.as_dict() == cold.stats.as_dict()
    assert ([(v.index, v.kind, v.status, v.counterexample)
             for v in warm.verdicts]
            == [(v.index, v.kind, v.status, v.counterexample)
                for v in cold.verdicts])


def _wc_pair():
    source = get_workload("wc").source
    return tuple(compile_source(source, CompileOptions(level=level)).module
                 for level in (OptLevel.O0, OptLevel.OVERIFY))


def _verdicts(report):
    return [(v.index, v.kind, v.status, v.counterexample)
            for v in report.verdicts]


def test_undecodable_memo_is_rechecked_and_overwritten(tmp_path):
    """A relcheck memo whose stats carry a counter this build lacks (as a
    build with a since-retired ``RelcheckStats`` field would leave it) is
    a miss, not a crash: the pair is re-checked and the fresh report
    replaces the memo."""
    import copy

    from repro.service.store import relcheck_fingerprint

    config = RelcheckConfig(input_bytes=2)
    module_a, module_b = _wc_pair()
    pair = ("-O0", "-OVERIFY")
    path = tmp_path / "store.jsonl"
    store = SolverKnowledgeStore(path)
    cold = relcheck_modules(module_a, module_b, config=config, pair=pair,
                            store=store)
    assert cold.clean and not cold.truncated
    store.save()

    store = SolverKnowledgeStore(path)
    store.load()
    key = relcheck_fingerprint(module_a, module_b, config.spec())
    memo = store.memo_lookup(key, copy.deepcopy)
    memo["stats"]["retired_counter"] = 3
    store.memo_record(key, memo)
    store.save()

    stale = SolverKnowledgeStore(path)
    stale.load()
    rechecked = relcheck_modules(module_a, module_b, config=config,
                                 pair=pair, store=stale)
    assert rechecked.provenance != "memo-hit"
    assert rechecked.clean and not rechecked.truncated
    assert _verdicts(rechecked) == _verdicts(cold)
    stale.save()

    fresh = SolverKnowledgeStore(path)
    fresh.load()
    again = relcheck_modules(module_a, module_b, config=config, pair=pair,
                             store=fresh)
    assert again.provenance == "memo-hit"
    assert _verdicts(again) == _verdicts(cold)


def test_provenance_counts_store_answers_not_store_contents(tmp_path):
    """``warm-store`` means a primed entry answered a query, as for
    verification: a store holding only another config's memo leaves the
    run cold; a store primed by a cold run of another config warms it."""
    module_a, module_b = _wc_pair()
    pair = ("-O0", "-OVERIFY")
    config = RelcheckConfig(input_bytes=2)
    other_config = RelcheckConfig(input_bytes=2, max_instructions=1_999_999)

    memo_only = SolverKnowledgeStore(tmp_path / "memo-only.jsonl")
    memo_only.memo_record("ab" * 32, {"paths": 1})
    report = relcheck_modules(module_a, module_b, config=config, pair=pair,
                              store=memo_only)
    assert report.provenance == "cold"
    assert report.solver_stats.store_hits == 0

    path = tmp_path / "primed.jsonl"
    primer = SolverKnowledgeStore(path)
    relcheck_modules(module_a, module_b, config=config, pair=pair,
                     store=primer)
    primer.save()
    store = SolverKnowledgeStore(path)
    store.load()
    warm = relcheck_modules(module_a, module_b, config=other_config,
                            pair=pair, store=store)
    assert warm.provenance == "warm-store"
    assert warm.solver_stats.store_hits > 0


def test_configs_differing_only_in_timeout_share_one_memo(tmp_path):
    """The wall-clock budget is not in the memo key: a truncated report
    is never recorded, so the budget cannot change one that is."""
    module_a, module_b = _wc_pair()
    pair = ("-O0", "-OVERIFY")
    store = SolverKnowledgeStore(tmp_path / "store.jsonl")
    first = relcheck_modules(module_a, module_b, pair=pair, store=store,
                             config=RelcheckConfig(input_bytes=2,
                                                   timeout_seconds=60.0))
    assert first.provenance == "cold" and not first.truncated
    again = relcheck_modules(module_a, module_b, pair=pair, store=store,
                             config=RelcheckConfig(input_bytes=2,
                                                   timeout_seconds=30.0))
    assert again.provenance == "memo-hit"
    assert _verdicts(again) == _verdicts(first)
    assert store.memo_count == 1


def test_a_report_that_hit_a_query_deadline_is_not_memoized(tmp_path):
    """A solver query deadline is the clock, as for verification: a
    report whose queries hit one is not recorded, even when no budget
    truncated it, so a slow machine's unknowns never answer later runs."""
    module_a, module_b = _wc_pair()
    pair = ("-O0", "-OVERIFY")
    config = RelcheckConfig(input_bytes=2, query_deadline_seconds=1e-6)
    store = SolverKnowledgeStore(tmp_path / "store.jsonl")
    first = relcheck_modules(module_a, module_b, config=config, pair=pair,
                             store=store)
    assert first.solver_stats.query_deadlines > 0
    assert not first.truncated
    assert store.memo_count == 0
    again = relcheck_modules(module_a, module_b, config=config, pair=pair,
                             store=store)
    assert again.provenance != "memo-hit"


def test_relcheck_through_one_store_primes_it_once(tmp_path, store_decodes):
    """Every run through one store solves into the store's one table: a
    memo hit decodes no group record, and the first miss primes the
    table from the loaded records once for all the workloads after it
    (not once per workload, from a store that keeps growing)."""
    path = tmp_path / "store.jsonl"
    config = RelcheckConfig(input_bytes=2)
    seed = SolverKnowledgeStore(path)
    relcheck_workload("wc", config=config, store=seed)
    seed.save()

    store = SolverKnowledgeStore(path)
    assert store.load()
    loaded_wires = sum(len(record["constraints"])
                       for record in store._groups.values())
    assert loaded_wires > 0
    store_decodes.clear()
    assert relcheck_workload("wc", config=config,
                             store=store).provenance == "memo-hit"
    assert store_decodes == []
    for name in ("echo", "rev", "cut"):
        report = relcheck_workload(name, config=config, store=store)
        assert report.provenance != "memo-hit" and report.clean
    assert len(store_decodes) == loaded_wires
    assert store.primed_entries == len(store.caches.from_store) > 0


def test_store_primed_rerun_answers_from_the_store(tmp_path):
    """A rerun whose solver caches are primed from a cold run's store,
    with no store handed to the rerun itself (so the whole-run memo
    cannot answer): same verdicts as the cold run, and group queries
    really answered by primed store records."""
    config = RelcheckConfig(input_bytes=3, timeout_seconds=120.0)
    source = get_workload("wc").source
    module_a, module_b = (
        compile_source(source, CompileOptions(level=level)).module
        for level in (OptLevel.O0, OptLevel.OVERIFY))
    pair = ("-O0", "-OVERIFY")
    store_path = tmp_path / "knowledge.jsonl"
    cold_store = SolverKnowledgeStore(store_path)
    cold = relcheck_modules(module_a, module_b, config=config, pair=pair,
                            store=cold_store)
    assert cold.clean and not cold.truncated
    assert cold.stats.paths_proved >= 1
    cold_store.save()

    store = SolverKnowledgeStore(store_path)
    assert store.load()
    store.prime()
    warm = relcheck_modules(module_a, module_b, config=config, pair=pair,
                            shared_caches=store.caches)
    assert warm.clean and not warm.truncated
    assert ([(v.index, v.kind, v.status, v.counterexample)
             for v in warm.verdicts]
            == [(v.index, v.kind, v.status, v.counterexample)
                for v in cold.verdicts])
    assert warm.solver_stats.store_hits > 0
