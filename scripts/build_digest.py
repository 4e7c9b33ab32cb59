#!/usr/bin/env python3
"""One line per build: what every level makes of every program.

For every registry workload and fuzz seeds ``0..N-1`` (``--seeds``,
default 120), at all five levels, print

    <program> <level> <sha256 of print_module> <instructions> <pass runs>

where ``pass runs`` counts the pass executions the manager did not skip.
A compile that raises prints the exception's type in place of the last
three fields.  Run it on two trees and ``diff`` the outputs to show that a
change leaves every build as it was:

    PYTHONPATH=src python scripts/build_digest.py > after.txt
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fuzz import generate_program  # noqa: E402
from repro.ir import print_module  # noqa: E402
from repro.pipelines import CompilerSession, OptLevel  # noqa: E402
from repro.workloads import get_workload, workload_names  # noqa: E402


def _programs(seeds: int):
    for name in workload_names():
        yield name, get_workload(name).source
    for seed in range(seeds):
        yield f"fuzz-seed-{seed}", generate_program(seed)


def _digest(session: CompilerSession, source: str, level: OptLevel) -> str:
    try:
        result = session.compile(source, level=level)
    except Exception as exc:  # a failing build is a line of the digest
        return type(exc).__name__
    text = hashlib.sha256(print_module(result.module).encode()).hexdigest()
    runs = sum(1 for record in result.pass_history if not record.skipped)
    return f"{text} {result.instruction_count} {runs}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=120,
                        help="fuzz seeds 0..N-1 to build (default 120)")
    args = parser.parse_args(argv)
    if args.seeds < 0:
        parser.error("--seeds must be at least 0")
    for label, source in _programs(args.seeds):
        session = CompilerSession()
        for level in OptLevel:
            print(f"{label} {level} {_digest(session, source, level)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
