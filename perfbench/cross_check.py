#!/usr/bin/env python3
"""Cross-check the hand-written verdict file by running every input.

    python3 perfbench/cross_check.py [--max-bytes 2] [PROGRAM ...]

For every program and every size up to ``--max-bytes`` that
``expected_verdicts.json`` lists, compiles the program at -O0, runs all
256**size inputs through ``repro.interp.run_module`` and compares the bug
classes that trap (and, at 1 byte, the bytes that trigger each class)
with the file.  The symbolic engine is not involved.  A 2-byte program
takes about 40 s on one core; the whole registry about half an hour.
Exits non-zero on the first disagreement it reports.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(__file__)]

from repro.interp import run_module  # noqa: E402
from repro.pipelines import CompilerSession, OptLevel  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

from oracle import Oracle  # noqa: E402


def _spans(values):
    """Sorted byte values as inclusive hex spans (``"30"``, ``"00-ff"``)."""
    spans = []
    for value in sorted(values):
        if spans and spans[-1][1] == value - 1:
            spans[-1][1] = value
        else:
            spans.append([value, value])
    return [f"{low:02x}" if low == high else f"{low:02x}-{high:02x}"
            for low, high in spans]


def observe(program: str, size: int):
    """Classes that trap on some input of ``size`` bytes, and at 1 byte
    the bytes triggering each."""
    oracle = Oracle()
    module = CompilerSession().compile(get_workload(program).source,
                                       level=OptLevel.O0).module
    triggers = {}
    for values in itertools.product(range(256), repeat=size):
        result = run_module(module, bytes(values))
        if result.error is not None:
            name = oracle.class_of(result.error.kind.value)
            triggers.setdefault(name, set()).add(values[0])
    return triggers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("programs", nargs="*")
    parser.add_argument("--max-bytes", type=int, default=2)
    args = parser.parse_args()
    oracle = Oracle()
    failures = 0
    for program in args.programs or oracle.programs():
        for size in oracle.sizes(program):
            if size > args.max_bytes:
                continue
            start = time.perf_counter()
            triggers = observe(program, size)
            problems = []
            if frozenset(triggers) != oracle.expected(program, size):
                problems.append(f"classes {sorted(triggers)} != file "
                                f"{sorted(oracle.expected(program, size))}")
            if size == 1:
                seen = {name: _spans(values)
                        for name, values in triggers.items()}
                if seen != oracle.trigger_bytes(program):
                    problems.append(f"1-byte triggers {seen} != file "
                                    f"{oracle.trigger_bytes(program)}")
            status = "; ".join(problems) or "ok"
            print(f"{program:28s} {size}B {time.perf_counter() - start:6.1f}s"
                  f"  {status}", flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
