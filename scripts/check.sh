#!/usr/bin/env bash
# CI-style gate: tier-1 tests, an IR-verified compile of every workload at
# every level (PassManager verify_after_each=True, so the IR verifier runs
# after each individual pass), the build digest, the library archive's
# lazy-load check, the docs, registry, fuzz, relcheck, searcher,
# solver-matrix, service and chaos smokes, and perfbench's own tests.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests (differential suite runs separately below, reduced) =="
python -m pytest -x -q --ignore tests/test_solver_differential.py

echo
echo "== IR invariants: verify-after-each-pass compile of every workload =="
python - <<'PY'
from repro.pipelines import CompilerSession, CompileOptions, OptLevel
from repro.workloads import all_workloads

levels = [OptLevel.O0, OptLevel.O1, OptLevel.O2, OptLevel.O3,
          OptLevel.OVERIFY]
hits = misses = 0
for workload in all_workloads():
    # One session per workload, as the harness builds a level sweep.
    session = CompilerSession()
    for level in levels:
        session.compile(
            workload.source,
            CompileOptions(level=level, verify_after_each_pass=True))
    stats = session.analysis_stats
    hits += stats.hits
    misses += stats.misses
total = hits + misses
rate = hits / total if total else 0.0
print(f"verified {len(all_workloads())} workloads x {len(levels)} levels; "
      f"analysis cache: {hits} hits / {misses} misses ({rate:.0%})")
PY

echo
echo "== build digest: one line per build, every workload and level =="
# scripts/build_digest.py is the "the builds did not change" check: run it
# on two trees and diff.  Here it must print one line for each of the 45
# programs (43 registry workloads, fuzz seeds 0-1) at each of 5 levels.
lines="$(python scripts/build_digest.py --seeds 2 | wc -l)"
[ "$lines" -eq 225 ] || { echo "build_digest printed $lines lines, not 225"; exit 1; }
echo "build_digest: $lines builds"

echo
echo "== library archive: a fresh process analyses only the functions it links =="
# The C library is an archive (src/repro/vlibc/archive.py): a program that
# calls no library function must load none, so an eager load fails here.
python - <<'PY'
from repro.pipelines import CompilerSession, OptLevel
from repro.pipelines.session import library_archive
from repro.vlibc import LIBC_FUNCTIONS
from repro.workloads import get_workload

session = CompilerSession()
for level in (OptLevel.O0, OptLevel.OVERIFY):
    session.compile(get_workload("true").source, level=level)
for verification in (False, True):
    loaded = library_archive(verification).loaded()
    functions = [name for name in loaded if name in LIBC_FUNCTIONS]
    assert not functions, f"true loaded library functions {functions}"
print(f"true at -O0 and -OVERIFY: loaded {loaded} from each variant, "
      f"no library function")
PY

echo
echo "== docs gate: every docs/*.md referenced from README, no dead links =="
python scripts/check_docs.py

echo
echo "== registry lint: pipeline round-trips + docs/passes.md catalogue =="
python - <<'PY'
from pathlib import Path

from repro.passes import format_pipeline, parse_pipeline, pass_names
from repro.pipelines import LEVEL_PIPELINES, OptLevel

# Every level string is canonical: it renders back to itself.
for level, text in LEVEL_PIPELINES.items():
    rendered = format_pipeline(parse_pipeline(text))
    assert rendered == text, f"{level} pipeline is not canonical:\n{rendered}"

# Every registered pass round-trips standalone through parse/format.
for name in pass_names():
    assert format_pipeline(parse_pipeline(name)) == name, name

# The path-count passes must stay registered and in the -O2 pipeline.
required = {"sccp", "load-elim", "algebraic-simplify"}
assert required <= set(pass_names()), required - set(pass_names())
for name in required:
    assert name in LEVEL_PIPELINES[OptLevel.O2], f"{name} missing from -O2"

# docs/passes.md is the complete catalogue: every registered pass appears.
catalogue = Path("docs/passes.md").read_text(encoding="utf-8")
missing = [name for name in pass_names() if f"`{name}`" not in catalogue]
assert not missing, f"docs/passes.md is missing: {missing}"
print(f"{len(pass_names())} passes: canonical round-trips, "
      f"all catalogued in docs/passes.md")
PY

echo
echo "== differential fuzz smoke: fixed seed range + committed findings =="
# A fixed, small seed range with the full oracle (solver matrix on): fast
# enough for every push, real enough to catch an oracle or pass
# regression.  The nightly CI leg runs a much larger budget with
# --minimize (see .github/workflows/ci.yml and docs/fuzzing.md).
fuzz_out="$(mktemp -d)"
python -m repro fuzz --seeds 10 --out "$fuzz_out"
python -m repro fuzz --check-workloads --out "$fuzz_out"
rm -rf "$fuzz_out"

echo
echo "== relcheck smoke: translation validation at both level pairs =="
# The product driver must prove the smoke pair equivalent (wc: pure
# return-value paths; buggy_div: trap-agreement paths) with zero
# divergences at the paper's pair and at (O2, O3).  docs/relcheck.md.
for pair in O0,OVERIFY O2,O3; do
    python -m repro relcheck wc --levels "$pair" --input-bytes 3
    python -m repro relcheck buggy_div --levels "$pair" --input-bytes 3
done

echo
echo "== searcher independence smoke: dfs, bfs and random must agree =="
python - <<'PY'
from repro.pipelines import CompileOptions, OptLevel, compile_source
from repro.verification import VerificationRequest, make_backend
from repro.workloads import get_workload

request = VerificationRequest(symbolic_input_bytes=3, timeout_seconds=120.0)
for name in ("wc", "buggy_div"):
    compiled = compile_source(get_workload(name).source,
                              CompileOptions(level=OptLevel.O1))
    dfs = make_backend("symex").verify(compiled.module, request)
    for searcher in ("bfs", "random"):
        other = make_backend(f"symex<searcher={searcher}>").verify(
            compiled.module, request)
        for field in ("paths", "errors", "instructions", "bug_signatures"):
            assert getattr(dfs, field) == getattr(other, field), \
                f"{name}: searcher={searcher} diverged on {field}"
    print(f"{name}: dfs == bfs == random "
          f"({dfs.paths} paths, {dfs.errors} errors)")
PY

echo
echo "== solver differential-matrix smoke (reduced query counts) =="
# Full counts (1200 queries + 4x500 matrix + 300 wide) stay the default
# for a plain `python -m pytest`; the gate runs the same matrix reduced.
SOLVER_DIFFERENTIAL_QUERIES=120 \
SOLVER_DIFFERENTIAL_MATRIX_QUERIES=60 \
SOLVER_DIFFERENTIAL_WIDE_QUERIES=60 \
    python -m pytest tests/test_solver_differential.py -q

echo
echo "== verification service smoke: serve, two identical jobs, memo hit =="
python - <<'PY'
import json
import socket
import tempfile
import threading
from pathlib import Path

from repro.service import ServiceClient, VerificationServer
from repro.service import ServiceError
from repro.service.server import MAX_REQUEST_BYTES
from repro.workloads import get_workload

with tempfile.TemporaryDirectory() as tmp:
    socket_path = Path(tmp) / "verify.sock"
    store_path = Path(tmp) / "knowledge.jsonl"
    server = VerificationServer(socket_path, store_path=store_path,
                                pool_size=2)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    client = ServiceClient(socket_path, timeout=120.0)
    client.wait_until_ready()
    first = client.verify(workload="wc", level="-OVERIFY", job_id="smoke-1")
    second = client.verify(workload="wc", level="-OVERIFY", job_id="smoke-2")
    assert first["ok"] and first["provenance"] == "cold", first
    assert second["ok"] and second["provenance"] == "memo-hit", second
    assert second["paths"] == first["paths"]
    stats = client.stats()
    assert stats["jobs_completed"] == 2 and stats["memo_hits"] == 1, stats
    # One computed job, one save; a memo hit saves nothing.
    assert stats["saves"] == 1, stats
    # A request line past asyncio's default 64-KiB limit is still served.
    wc = get_workload("wc")
    padded = wc.source + "\n/*" + " pad" * 20_000 + " */\n"
    assert len(padded) > 1 << 16
    long_line = client.verify(source=padded, level="-OVERIFY",
                              input_bytes=wc.default_input_bytes)
    assert long_line["ok"], long_line
    # A line past the server's bound gets a protocol error, and the
    # server goes on answering.
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(60.0)
        sock.connect(str(socket_path))
        sock.sendall(b'{"op": "ping", "pad": "'
                     + b"x" * MAX_REQUEST_BYTES + b'"}\n')
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = sock.recv(65536)
            assert chunk, "connection closed without a reply"
            reply += chunk
    assert json.loads(reply)["error_kind"] == "protocol", reply
    assert client.ping() is True
    # Bad source is the client's fault: a non-retryable compile error,
    # and the server goes on answering.
    try:
        client.verify(source="int main(unsigned char *input, int len) "
                             "{ return 1 +; }", level="-O0")
    except ServiceError as exc:
        assert exc.kind == "compile" and not exc.retryable, exc
    else:
        raise AssertionError("a syntax error was verified")
    assert client.ping() is True
    client.shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive(), "server did not shut down cleanly"
    assert store_path.exists(), "store was not persisted"
    print(f"service: cold -> memo-hit on identical resubmission, "
          f"one save per computed job, a {len(padded)}-byte source "
          f"served, an over-long line refused, "
          f"{stats['store_records']} store records persisted, "
          f"clean shutdown")
PY

echo
echo "== chaos smoke: every fault site degrades as contracted =="
python scripts/chaos_smoke.py

echo
echo "== perfbench tests: the benchmark's own checks against src =="
# perfbench wraps and reads src by name (ParallelExecutor.run,
# session.parse, pass_names(), SolverStats fields); a rename or deletion
# in src fails here before it breaks a benchmark run.
python -m pytest perfbench/tests -q

echo
echo "check.sh: all gates passed"
