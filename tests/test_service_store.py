"""Tests for the persistent solver-knowledge store.

Five layers are locked down here:

* the **wire codec**: expressions round-trip through their canonical
  schedule form back to the *identical* (interned) object, group
  fingerprints are order-independent, and damaged wire forms raise
  :class:`WireError` instead of materializing malformed expressions;
* the **journal format**: save/load round-trips both record kinds, a
  save appends only what the store learned since its last save, a
  damaged record line (torn append, flipped byte) costs that line and
  nothing else, and a foreign or other-version file is moved aside and
  loads cold with the reason recorded — never an exception or a wrong
  answer;
* **concurrent writers**: threads and processes appending to one path
  union their knowledge and lose no record;
* **incremental persistence**: absorb fingerprints only groups the store
  lacks, and a save reads no file and encodes only the records it
  appends;
* the **warm-vs-cold differential** over the workload registry: priming
  a fresh run from a store produced by a cold run must not change a
  single observable — bug signatures, path sets (test inputs included),
  outcomes — at any optimization level.

``STORE_DIFFERENTIAL_WORKLOADS`` selects the differential's workloads:
a comma-separated name list, or ``all`` for the full registry (the
acceptance configuration; the *cold* halves of a few solver-hard builds
dominate its ~10-minute runtime — the warm halves are near-free, which
is rather the point).  The default is a representative subset spanning
the fast, path-heavy, bug-carrying, and solver-hard categories.
``STORE_DIFFERENTIAL_BYTES`` sets the symbolic input size (default 2 —
a handful of -OVERIFY builds carry solver-hard runtime-check constraints
whose cold solve takes minutes at larger sizes).
"""

import builtins
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import as_partition
from repro.faults import StoreError, injected
from repro.pipelines import CompileOptions, CompilerSession, OptLevel
from repro.service import store as store_module
from repro.service.store import (
    FORMAT_NAME, FORMAT_VERSION, SolverKnowledgeStore, WireError,
    expr_from_wire, expr_to_wire, group_fingerprint,
)
from repro.symex import (
    ExprOp, SharedSolverCaches, Solver, SolverConfig, SolverResult,
    SymexLimits, binary, const, explore, not_expr, var,
)
from repro.workloads import all_workloads, get_workload

# ---------------------------------------------------------------- wire codec


def _sample_exprs():
    a, b = var(8, "in0"), var(8, "in1")
    shared = binary(ExprOp.ADD, a, b)
    return [
        const(8, 0),
        const(32, 2**31),
        a,
        binary(ExprOp.EQ, shared, const(8, 7)),
        # The same subterm twice: the schedule must share it, and the
        # round trip must preserve the sharing.
        binary(ExprOp.AND, binary(ExprOp.ULT, shared, const(8, 9)),
               not_expr(binary(ExprOp.EQ, shared, const(8, 3)))),
        binary(ExprOp.MUL, binary(ExprOp.SUB, a, const(8, 1)),
               binary(ExprOp.XOR, b, const(8, 0x55))),
    ]


def test_expr_wire_round_trip_is_identity():
    for expr in _sample_exprs():
        wire = expr_to_wire(expr)
        json.dumps(wire)  # must be JSON-serializable as-is
        assert expr_from_wire(wire) is expr  # hash-consing: same object


def test_expr_wire_round_trip_randomized():
    rng = random.Random(20130507)
    names = ["in0", "in1", "in2"]
    ops = [ExprOp.ADD, ExprOp.SUB, ExprOp.MUL, ExprOp.AND, ExprOp.OR,
           ExprOp.XOR, ExprOp.EQ, ExprOp.NE, ExprOp.ULT, ExprOp.SLE]

    def build(depth=0):
        if depth >= 3 or rng.random() < 0.35:
            if rng.random() < 0.5:
                return var(8, rng.choice(names))
            return const(8, rng.randrange(256))
        return binary(rng.choice(ops), build(depth + 1), build(depth + 1))

    for _ in range(300):
        expr = build()
        assert expr_from_wire(expr_to_wire(expr)) is expr


def test_group_fingerprint_order_independent():
    a, b = var(8, "in0"), var(8, "in1")
    constraints = [binary(ExprOp.ULT, a, const(8, 10)),
                   binary(ExprOp.EQ, b, const(8, 3)),
                   not_expr(binary(ExprOp.EQ, a, b))]
    fingerprint = group_fingerprint(constraints)
    rng = random.Random(1)
    for _ in range(5):
        shuffled = list(constraints)
        rng.shuffle(shuffled)
        assert group_fingerprint(shuffled) == fingerprint
    assert group_fingerprint(constraints[:2]) != fingerprint


@pytest.mark.parametrize("wire", [
    None,
    [],
    "nonsense",
    [["q", 8, 0]],                      # unknown tag
    [["c", 0, 1]],                      # width out of range
    [["c", 65, 1]],                     # width out of range
    [["c", True, 1]],                   # bool masquerading as width
    [["c", 8, True]],                   # bool masquerading as value
    [["c", 8, "x"]],                    # non-integer constant
    [["v", 8, ""]],                     # empty variable name
    [["v", 8, 7]],                      # non-string variable name
    [["add", 8, [0, 1]]],               # forward/out-of-range reference
    [["c", 8, 1], ["add", 8, [0, 1]]],  # self-reference
    [["c", 8, 1], ["add", 8, []]],      # no operands
    [["c", 8, 1], ["const", 8, [0]]],   # const spelled as operator
    [["c", 8, 1], ["add", 8, 0]],       # operand list not a list
    [["c", 8, 1, 2]],                   # wrong arity
])
def test_expr_from_wire_rejects_damage(wire):
    with pytest.raises(WireError):
        expr_from_wire(wire)


# ------------------------------------------------------------ file round trip


def _sample_caches():
    """A satisfiable group, an unsatisfiable group and a group a search
    solved (canonical)."""
    a, b = var(8, "in0"), var(8, "in1")
    caches = SharedSolverCaches()
    caches.remember([binary(ExprOp.ULT, a, const(8, 10))],
                    SolverResult(True, {"in0": 3}))
    caches.remember([binary(ExprOp.EQ, a, const(8, 1)),
                     binary(ExprOp.EQ, a, const(8, 2))],
                    SolverResult(False, None))
    caches.remember([binary(ExprOp.EQ, b, const(8, 5))],
                    SolverResult(True, {"in1": 5}), canonical=True)
    return caches


def _populated_store(path):
    """A store holding :func:`_sample_caches`' three groups and a memo."""
    store = SolverKnowledgeStore(path)
    store.absorb(_sample_caches())
    store.memo_record("deadbeef" * 8, {"paths": 4, "errors": 0})
    return store


def test_store_round_trip(tmp_path):
    path = tmp_path / "knowledge.jsonl"
    store = _populated_store(path)
    assert len(store) == 4  # 3 groups + memo
    store.save()

    loaded = SolverKnowledgeStore(path)
    assert loaded.load() is True
    assert loaded.load_error == ""
    assert len(loaded) == len(store)
    assert loaded.memo_count == 1
    assert loaded.memo_lookup("deadbeef" * 8, dict) == \
        {"paths": 4, "errors": 0}

    # Priming the loaded store's table reproduces the original solver
    # knowledge: the sat group hits, the unsat group hits, and the
    # canonical group answers concretization without a search.
    assert loaded.prime() == 3
    solver = Solver(shared=loaded.caches)
    a, b = var(8, "in0"), var(8, "in1")
    assert solver.check_partition(
        *as_partition([binary(ExprOp.ULT, a, const(8, 10))])).satisfiable
    assert not solver.check_partition(
        *as_partition([binary(ExprOp.EQ, a, const(8, 1)),
                       binary(ExprOp.EQ, a, const(8, 2))])).satisfiable
    assert solver.concretization_model(
        (), [(binary(ExprOp.EQ, b, const(8, 5)),)]) == {"in1": 5}
    assert solver.stats.store_hits == 3
    assert solver.stats.csp_searches == 0


def test_prime_runs_once_per_load(tmp_path, monkeypatch):
    """Two first callers at once prime the store's table once (the second
    waits for the first one's entries); later calls decode nothing until
    the next load."""
    path = tmp_path / "knowledge.jsonl"
    _populated_store(path).save()
    store = SolverKnowledgeStore(path)
    assert store.load() is True
    assert store.primed_entries is None and not store.caches.results
    decoded = _count_calls(monkeypatch, store_module, "expr_from_wire")
    barrier = threading.Barrier(2, timeout=30)
    added = []

    def first_miss():
        barrier.wait()
        added.append(store.prime())

    threads = [threading.Thread(target=first_miss) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert sorted(added) == [0, 3]
    assert store.primed_entries == 3 and len(store.caches.results) == 3
    once = len(decoded)
    assert once == 4  # the three groups' constraints
    assert store.prime() == 0 and len(decoded) == once
    assert store.load() is True
    store.prime()
    assert len(decoded) == 2 * once


def _journal(path):
    """The store file's lines, parsed (every append starts a new line,
    so a file starts with a blank one)."""
    text = path.read_text()
    assert text.startswith("\n")
    return [json.loads(line) for line in text.split("\n")[1:]]


def test_saved_store_holds_group_and_memo_records_only(tmp_path):
    """Format version 3, a journal: a header, then the table of group
    results and the memos, and no footer; the UBTree indexes are rebuilt
    on priming."""
    path = tmp_path / "knowledge.jsonl"
    _populated_store(path).save()
    lines = _journal(path)
    assert lines[0] == {"format": FORMAT_NAME, "version": 3}
    assert FORMAT_VERSION == 3
    assert [record["kind"] for record in lines[1:]] == \
        ["group"] * 3 + ["memo"]


def test_absorbed_group_answers_a_superset_through_the_unsat_index(
        tmp_path):
    """A group primed from a store enters the UNSAT index, so a query on
    a superset of its constraints is a containment hit, not a search."""
    path = tmp_path / "knowledge.jsonl"
    _populated_store(path).save()
    loaded = SolverKnowledgeStore(path)
    assert loaded.load()
    loaded.prime()
    solver = Solver(shared=loaded.caches)
    a, c = var(8, "in0"), var(8, "in2")
    superset = [binary(ExprOp.EQ, a, const(8, 1)),
                binary(ExprOp.EQ, a, const(8, 2)),
                binary(ExprOp.ULT, binary(ExprOp.ADD, a, c), const(8, 9))]
    assert not solver.check_partition(*as_partition(superset)).satisfiable
    assert solver.stats.ubtree_hits == 1
    assert solver.stats.csp_searches == 0


def test_memo_lookup_treats_an_undecodable_payload_as_a_miss():
    store = SolverKnowledgeStore(None)
    store.memo_record("k", {"paths": "many"})

    def decode(payload):
        return int(payload["paths"])

    assert store.memo_lookup("k", decode) is None
    assert store.memo_lookup("absent", decode) is None
    store.memo_record("k", {"paths": 3})
    assert store.memo_lookup("k", decode) == 3


def test_save_without_path_is_noop(tmp_path):
    store = SolverKnowledgeStore(None)
    store.memo_record("k", {"v": 1})
    store.save()  # must not raise, must not write anywhere
    assert store.load() is False
    # load() resets even a memory-only store
    assert store.memo_lookup("k", dict) is None


# --------------------------------------------------------- corruption → cold


def _assert_cold(path, reason_fragment):
    store = SolverKnowledgeStore(path)
    assert store.load() is False
    assert reason_fragment in store.load_error
    assert len(store) == 0


def test_missing_file_is_cold(tmp_path):
    _assert_cold(tmp_path / "nope.jsonl", "missing")


def test_version_mismatch_is_cold(tmp_path):
    path = tmp_path / "knowledge.jsonl"
    store = _populated_store(path)
    store.save()
    lines = path.read_text().split("\n")
    header = json.loads(lines[1])
    assert header == {"format": FORMAT_NAME, "version": FORMAT_VERSION}
    header["version"] = FORMAT_VERSION + 1
    lines[1] = json.dumps(header)
    path.write_text("\n".join(lines))
    _assert_cold(path, "version")


def test_wrong_format_name_is_cold(tmp_path):
    path = tmp_path / "knowledge.jsonl"
    path.write_text(json.dumps({"format": "something-else", "version": 1})
                    + "\n" + json.dumps({"kind": "end", "records": 0}) + "\n")
    _assert_cold(path, "not a solver store")


def test_truncated_file_loads_every_whole_record(tmp_path):
    """A tail cut mid-record costs that record: every whole line before
    it loads, and the cut line is counted."""
    path = tmp_path / "knowledge.jsonl"
    _populated_store(path).save()
    full = path.read_text()
    # A cut on a line boundary loses the last record and nothing else...
    path.write_text(full[:full.rindex("\n")])
    store = SolverKnowledgeStore(path)
    assert store.load() is True
    assert (len(store), store.memo_count, store.load_error) == (3, 0, "")
    # ...and a cut inside it leaves a torn line, skipped and counted.
    path.write_text(full[:len(full) - 40])
    store = SolverKnowledgeStore(path)
    assert store.load() is True
    assert (len(store), store.memo_count) == (3, 0)
    assert store.load_error == "skipped damaged record lines: 1"


def test_flipped_record_byte_skips_only_that_record(tmp_path):
    """A record whose body no longer matches its checksum is skipped and
    counted, never primed or served; the other records load."""
    path = tmp_path / "knowledge.jsonl"
    _populated_store(path).save()
    text = path.read_text()
    # Flip a satisfiable group to unsatisfiable and change the memo's
    # path count, leaving both checksums as they were.
    text = text.replace('"satisfiable":true', '"satisfiable":false', 1)
    text = text.replace('"paths":4', '"paths":5')
    path.write_text(text)
    store = SolverKnowledgeStore(path)
    assert store.load() is True
    assert store.load_error == "skipped damaged record lines: 2"
    assert (len(store), store.memo_count) == (2, 0)
    assert store.memo_lookup("deadbeef" * 8, dict) is None
    assert store.prime() == 2


def test_junk_content_is_cold(tmp_path):
    path = tmp_path / "knowledge.jsonl"
    path.write_text("this is not even json\n")
    store = SolverKnowledgeStore(path)
    assert store.load() is False
    assert store.load_error.startswith("corrupt")


def test_empty_file_is_cold(tmp_path):
    path = tmp_path / "knowledge.jsonl"
    path.write_text("")
    _assert_cold(path, "empty")


def test_unreadable_path_is_cold(tmp_path):
    # A directory where the file should be: open() fails, load is cold.
    path = tmp_path / "knowledge.jsonl"
    path.mkdir()
    store = SolverKnowledgeStore(path)
    assert store.load() is False
    assert store.load_error.startswith("unreadable")


def test_damaged_stored_expression_is_skipped_not_fatal(tmp_path):
    """A record that passes the checksum but whose wire form no longer
    decodes (e.g. written by a build with an operator this build lacks)
    is skipped during priming, not fatal, and not wrong."""
    path = tmp_path / "knowledge.jsonl"
    store = _populated_store(path)
    with store._lock:
        keys = sorted(store._groups)
        store._groups[keys[0]]["constraints"] = [[["q", 8, 0]]]
    store.save()
    loaded = SolverKnowledgeStore(path)
    assert loaded.load() is True  # checksums match: the file is valid
    primed = loaded.prime()
    assert primed == 2  # one group dropped, the other two intact


# ------------------------------------------------------- concurrent writers


def test_appending_writers_union_their_records(tmp_path):
    path = tmp_path / "knowledge.jsonl"
    first = SolverKnowledgeStore(path)
    first.memo_record("aa" * 32, {"paths": 1})
    second = SolverKnowledgeStore(path)
    second.memo_record("bb" * 32, {"paths": 2})
    first.save()
    second.save()  # must append to, not clobber, first's record

    merged = SolverKnowledgeStore(path)
    assert merged.load() is True
    assert merged.memo_lookup("aa" * 32, dict) == {"paths": 1}
    assert merged.memo_lookup("bb" * 32, dict) == {"paths": 2}


def test_a_later_memo_line_replaces_an_earlier_one(tmp_path):
    path = tmp_path / "knowledge.jsonl"
    first = SolverKnowledgeStore(path)
    first.memo_record("cc" * 32, {"paths": 1})
    first.save()
    second = SolverKnowledgeStore(path)
    second.load()
    second.memo_record("cc" * 32, {"paths": 99})
    second.save()
    merged = SolverKnowledgeStore(path)
    merged.load()
    assert merged.memo_lookup("cc" * 32, dict) == {"paths": 99}
    assert merged.memo_count == 1


def test_concurrent_savers_never_corrupt(tmp_path):
    """Many threads saving disjoint knowledge into one path: every save
    must leave a loadable file, and the final file must hold every
    writer's records (each batch is one append; none is lost)."""
    path = tmp_path / "knowledge.jsonl"
    errors = []

    def writer(index):
        try:
            store = SolverKnowledgeStore(path)
            store.load()
            for j in range(5):
                store.memo_record(f"{index:02d}{j:02d}" * 16, {"n": index})
            store.save()
            check = SolverKnowledgeStore(path)
            if not check.load():
                errors.append(f"writer {index} read cold: "
                              f"{check.load_error}")
        except Exception as exc:  # pragma: no cover - the test's point
            errors.append(f"writer {index}: {exc!r}")

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    final = SolverKnowledgeStore(path)
    assert final.load() is True
    assert final.memo_count == 40
    assert final.load_error == ""


#: One writer process: waits until both writers are ready, then saves
#: after every memo it records.
_APPENDER = """
import os, sys, time
from repro.service.store import SolverKnowledgeStore
path, tag = sys.argv[1], sys.argv[2]
open(f"{path}.ready-{tag}", "w").close()
deadline = time.monotonic() + 60
while not all(os.path.exists(f"{path}.ready-{other}") for other in "ab"):
    assert time.monotonic() < deadline, "the other writer never started"
    time.sleep(0.001)
store = SolverKnowledgeStore(path)
for j in range(25):
    store.memo_record(f"{tag}{j:02d}" * 16, {"writer": tag, "j": j})
    store.save()
"""


def test_two_processes_appending_at_once_lose_no_record(tmp_path):
    path = tmp_path / "knowledge.jsonl"
    src = str(Path(store_module.__file__).parents[2])
    env = dict(os.environ, PYTHONPATH=src)
    writers = [subprocess.Popen([sys.executable, "-c", _APPENDER,
                                 str(path), tag], env=env)
               for tag in "ab"]
    assert [writer.wait(timeout=120) for writer in writers] == [0, 0]
    final = SolverKnowledgeStore(path)
    assert final.load() is True
    assert final.load_error == ""
    assert final.memo_count == 50
    for tag in "ab":
        for j in range(25):
            assert final.memo_lookup(f"{tag}{j:02d}" * 16, dict) == \
                {"writer": tag, "j": j}


# ---------------------------------------------- incremental persistence


def _count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` (which still runs) in a list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _appended_keys(before, after):
    """The record keys a save appended to a file that held ``before``;
    the bytes already there must be untouched."""
    assert after.startswith(before)
    return [json.loads(line)["key"]
            for line in after[len(before):].decode().split("\n")[1:]]


def _memos(path, keys):
    store = SolverKnowledgeStore(path)
    assert store.load() is True, store.load_error
    return {key: store.memo_lookup(key, dict) for key in keys}


def test_absorb_fingerprints_only_groups_the_store_lacks(tmp_path,
                                                         monkeypatch):
    path = tmp_path / "knowledge.jsonl"
    caches = _sample_caches()
    store = SolverKnowledgeStore(path)
    assert store.absorb(caches) == 3
    store.save()
    fingerprints = _count_calls(monkeypatch, store_module,
                                "group_fingerprint")
    assert store.absorb(caches) == 0
    assert fingerprints == []
    # A store knows the groups it primed without fingerprinting them.
    primed = SolverKnowledgeStore(path)
    assert primed.load() is True
    assert primed.prime() == 3
    assert primed.absorb(primed.caches) == 0
    assert fingerprints == []
    caches.remember([binary(ExprOp.ULT, var(8, "in0"), const(8, 20))],
                    SolverResult(True, {"in0": 0}))
    assert store.absorb(caches) == 1
    assert len(fingerprints) == 1


def test_save_of_an_unchanged_file_encodes_only_new_records(tmp_path,
                                                            monkeypatch):
    path = tmp_path / "knowledge.jsonl"
    store = _populated_store(path)
    store.save()
    checksums = _count_calls(monkeypatch, store_module, "_record_checksum")
    loads = _count_calls(monkeypatch, SolverKnowledgeStore, "load")
    before = path.read_bytes()
    store.memo_record("ab" * 32, {"paths": 7})
    store.save()
    assert len(checksums) == 1  # the new memo's line, nothing re-encoded
    assert loads == []
    after = path.read_bytes()
    assert _appended_keys(before, after) == ["ab" * 32]
    store.save()  # nothing new: nothing appended
    assert path.read_bytes() == after


def test_a_save_after_a_load_reads_no_file_and_encodes_only_new_records(
        tmp_path, monkeypatch):
    path = tmp_path / "knowledge.jsonl"
    writer = _populated_store(path)
    for index in range(20):
        writer.memo_record(f"{index:064d}", {"paths": index})
    writer.save()
    store = SolverKnowledgeStore(path)
    assert store.load() is True and len(store) == 24
    before = path.read_bytes()
    checksums = _count_calls(monkeypatch, store_module, "_record_checksum")
    opened = []
    real_open = os.open

    def watched_open(file, flags, *args, **kwargs):
        opened.append((flags & os.O_ACCMODE, bool(flags & os.O_APPEND)))
        return real_open(file, flags, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("save read a file")

    store.memo_record("ab" * 32, {"paths": 7})
    with monkeypatch.context() as patched:
        patched.setattr(os, "open", watched_open)
        for name in ("read_bytes", "read_text", "open"):
            patched.setattr(Path, name, refuse)
        patched.setattr(builtins, "open", refuse)
        patched.setattr(os, "read", refuse)
        store.save()
    assert opened == [(os.O_WRONLY, True)]
    assert len(checksums) == 1
    assert _appended_keys(before, path.read_bytes()) == ["ab" * 32]


def test_a_save_appends_after_another_writers_batch(tmp_path):
    path = tmp_path / "knowledge.jsonl"
    first = SolverKnowledgeStore(path)
    first.memo_record("aa" * 32, {"paths": 1})
    first.save()
    second = SolverKnowledgeStore(path)
    second.memo_record("bb" * 32, {"paths": 2})
    second.save()
    first.memo_record("cc" * 32, {"paths": 3})
    first.save()
    assert _memos(path, ["aa" * 32, "bb" * 32, "cc" * 32]) == {
        "aa" * 32: {"paths": 1}, "bb" * 32: {"paths": 2},
        "cc" * 32: {"paths": 3}}


def test_save_after_the_file_was_deleted_writes_every_record(tmp_path):
    path = tmp_path / "knowledge.jsonl"
    store = _populated_store(path)
    store.save()
    path.unlink()
    store.memo_record("ab" * 32, {"paths": 7})
    store.save()
    loaded = SolverKnowledgeStore(path)
    assert loaded.load() is True
    assert len(loaded) == 5 and loaded.memo_count == 2


def test_an_overwritten_memo_is_written_anew(tmp_path):
    path = tmp_path / "knowledge.jsonl"
    store = SolverKnowledgeStore(path)
    store.memo_record("k" * 64, {"paths": 1})
    store.save()
    store.memo_record("k" * 64, {"paths": 2})
    store.save()
    assert _memos(path, ["k" * 64]) == {"k" * 64: {"paths": 2}}


def test_a_retry_after_a_torn_append_reads_nothing(tmp_path, monkeypatch):
    """The failed save keeps its batch: the retry appends it whole,
    without reading the file, and the torn half is one skipped line."""
    path = tmp_path / "knowledge.jsonl"
    store = SolverKnowledgeStore(path)
    store.memo_record("aa" * 32, {"paths": 1})
    store.save()
    store.memo_record("bb" * 32, {"paths": 2})
    with injected("store.write:once"):
        with pytest.raises(StoreError):
            store.save()
    loads = _count_calls(monkeypatch, SolverKnowledgeStore, "load")
    store.save()
    assert loads == []
    assert _memos(path, ["aa" * 32, "bb" * 32]) == {
        "aa" * 32: {"paths": 1}, "bb" * 32: {"paths": 2}}
    reloaded = SolverKnowledgeStore(path)
    reloaded.load()
    assert reloaded.load_error == "skipped damaged record lines: 1"


def test_a_batch_appended_after_a_torn_one_loads_intact(tmp_path):
    """A writer that dies mid-append leaves a line without its end; the
    next writer's append starts a new line, so none of its records is
    glued onto the torn one."""
    path = tmp_path / "knowledge.jsonl"
    _populated_store(path).save()
    dying = SolverKnowledgeStore(path)
    dying.memo_record("aa" * 32, {"paths": 1})
    with injected("store.write:once"):
        with pytest.raises(StoreError):
            dying.save()
    assert not path.read_text().endswith("}")
    later = SolverKnowledgeStore(path)
    later.memo_record("bb" * 32, {"paths": 2})
    later.save()
    loaded = SolverKnowledgeStore(path)
    assert loaded.load() is True
    assert loaded.load_error == "skipped damaged record lines: 1"
    assert (len(loaded), loaded.memo_count) == (5, 2)
    assert loaded.memo_lookup("bb" * 32, dict) == {"paths": 2}
    assert loaded.memo_lookup("aa" * 32, dict) is None


def test_a_version_2_store_is_moved_aside_once(tmp_path):
    """A store of the read-merge-replace format (version 2, with a
    footer) is quarantined on the first load; the next save starts a
    version-3 journal, which later loads read without moving it."""
    path = tmp_path / "knowledge.jsonl"
    memo = {"key": "aa" * 32, "kind": "memo", "paths": 1}
    memo["sum"] = store_module._record_checksum(memo)
    path.write_text("".join(
        json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
        for line in ({"format": FORMAT_NAME, "version": 2}, memo,
                     {"kind": "end", "records": 1})))
    store = SolverKnowledgeStore(path)
    assert store.load() is False
    assert "version 2" in store.load_error
    assert store.quarantined == f"{path}.corrupt-1"
    store.memo_record("bb" * 32, {"paths": 2})
    store.save()
    assert _journal(path)[0] == {"format": FORMAT_NAME, "version": 3}
    again = SolverKnowledgeStore(path)
    assert again.load() is True
    assert (again.load_error, again.quarantined) == ("", "")
    assert again.memo_lookup("bb" * 32, dict) == {"paths": 2}
    assert sorted(entry.name for entry in tmp_path.iterdir()) == \
        ["knowledge.jsonl", "knowledge.jsonl.corrupt-1"]


def test_a_retry_after_a_torn_append_keeps_a_foreign_writers_records(
        tmp_path):
    path = tmp_path / "knowledge.jsonl"
    store = SolverKnowledgeStore(path)
    store.memo_record("aa" * 32, {"paths": 1})
    store.save()
    store.memo_record("bb" * 32, {"paths": 2})
    with injected("store.write:once"):
        with pytest.raises(StoreError):
            store.save()
    other = SolverKnowledgeStore(path)
    assert other.load() is True
    other.memo_record("cc" * 32, {"paths": 3})
    other.save()
    store.save()
    assert _memos(path, ["aa" * 32, "bb" * 32, "cc" * 32]) == {
        "aa" * 32: {"paths": 1}, "bb" * 32: {"paths": 2},
        "cc" * 32: {"paths": 3}}


def test_one_store_shared_by_saving_threads_loses_no_record(tmp_path):
    """Job threads share one store: each records memos and saves after
    every one, as the server does after every computed job.  Every record
    must reach the file."""
    path = tmp_path / "knowledge.jsonl"
    store = SolverKnowledgeStore(path)
    errors = []

    def job(index):
        try:
            for j in range(5):
                store.memo_record(f"{index:02d}{j:02d}" * 16, {"n": j})
                store.save()
        except Exception as exc:  # pragma: no cover - the test's point
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=job, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    final = SolverKnowledgeStore(path)
    assert final.load() is True
    assert final.memo_count == 30
    assert len(_journal(path)) == 31  # the header and each memo once


# ------------------------------------------------- warm-vs-cold differential

_LEVELS = [OptLevel.O0, OptLevel.O1, OptLevel.O2, OptLevel.O3,
           OptLevel.OVERIFY]


_DIFFERENTIAL_BYTES = int(os.environ.get("STORE_DIFFERENTIAL_BYTES", "2"))

#: The default differential subset: the parallel-determinism quartet plus
#: path-heavy (cat, cut, expand), bug-carrying (buggy_*), and solver-hard
#: (basename at -O2+ carries runtime-check constraints whose cold solve
#: takes ~10s; its warm solve must still be byte-identical) workloads.
_DEFAULT_DIFFERENTIAL = ["wc", "uniq", "buggy_div", "buggy_index",
                         "basename", "cat", "cut", "expand", "echo_args"]


def _differential_workloads():
    names = os.environ.get("STORE_DIFFERENTIAL_WORKLOADS", "")
    if names == "all":
        return list(all_workloads())
    if names:
        return [get_workload(name) for name in names.split(",") if name]
    return [get_workload(name) for name in _DEFAULT_DIFFERENTIAL]


def _path_content(record):
    """A path's observable content (state ids are scheduling artifacts)."""
    return (record.status.value, record.constraint_count,
            record.instructions, record.test_input, record.return_value)


def _observables(report):
    return {
        "bugs": sorted((bug.signature(), bug.message, bug.test_input)
                       for bug in report.bugs),
        "paths": sorted(_path_content(record) for record in report.paths),
        "outcome": (report.stats.paths_completed,
                    report.stats.paths_errored,
                    report.stats.paths_terminated,
                    report.stats.instructions_interpreted,
                    report.stats.timed_out),
    }


def test_warm_store_differential_over_registry(tmp_path):
    """The acceptance differential: for every registry workload at every
    level, a run primed from a cold run's store must be byte-identical to
    the cold run — same bug signatures, same path sets (test inputs
    included), same outcome.  The binding budget is the (deterministic)
    instruction budget, never wall clock: a warm run is faster, and a
    wall-clock cutoff would let the two runs truncate differently."""
    limits = SymexLimits(timeout_seconds=3600.0, max_instructions=60_000)
    session = CompilerSession()
    checked = 0
    store_hits = 0
    for workload in _differential_workloads():
        for level in _LEVELS:
            module = session.compile(
                workload.source, options=CompileOptions(level=level)).module
            store_path = tmp_path / f"{workload.name}-{level}.jsonl"

            cold_caches = SharedSolverCaches()
            cold = explore(module, _DIFFERENTIAL_BYTES, limits=limits,
                           solver=Solver(shared=cold_caches))
            store = SolverKnowledgeStore(store_path)
            store.absorb(cold_caches)
            store.save()

            warm_store = SolverKnowledgeStore(store_path)
            assert warm_store.load() is True or len(store) == 0
            warm_store.prime()
            warm = explore(module, _DIFFERENTIAL_BYTES, limits=limits,
                           solver=Solver(shared=warm_store.caches))

            assert _observables(warm) == _observables(cold), \
                f"{workload.name} at {level}: warm != cold"
            checked += 1
            store_hits += warm.solver_stats.store_hits
    assert checked == len(_differential_workloads()) * len(_LEVELS)
    # The differential must actually exercise the warm path: across the
    # sweep, plenty of groups must have been answered by primed entries.
    assert store_hits > checked
