"""The ``python -m repro relcheck`` subcommand (``docs/relcheck.md``).

Prove a workload's compilations at two levels equivalent path-by-path:

    python -m repro relcheck wc                       # -O0 vs -OVERIFY
    python -m repro relcheck wc --levels O2,O3
    python -m repro relcheck --all --input-bytes 3
    python -m repro relcheck buggy_div --whitelist division-by-zero

Exit status is the number of divergences found (capped at 99), so CI
legs can gate on it directly.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import List, Optional, Tuple

from ..interp.errors import ErrorKind
from ..pipelines import OptLevel, parse_opt_level
from ..workloads import all_workloads, get_workload
from .product import RelcheckConfig, RelcheckReport, relcheck_source


def _parse_levels(text: str) -> Tuple[OptLevel, OptLevel]:
    parts = [token.strip() for token in text.split(",") if token.strip()]
    if len(parts) != 2:
        raise ValueError(f"--levels wants two comma-separated levels, "
                         f"got {text!r}")
    return parse_opt_level(parts[0]), parse_opt_level(parts[1])


def _parse_whitelist(tokens: List[str]) -> frozenset:
    """Map CLI trap names (``division-by-zero``) to the normalized
    :class:`ErrorKind` values the checker compares."""
    values = set()
    for token in tokens:
        name = token.strip().replace("-", "_").upper()
        try:
            values.add(ErrorKind[name].value)
        except KeyError:
            known = ", ".join(kind.name.lower().replace("_", "-")
                              for kind in ErrorKind)
            raise ValueError(f"unknown trap kind {token!r} "
                             f"(known: {known})") from None
    return frozenset(values)


def _print_report(name: str, report: RelcheckReport,
                  show_paths: bool) -> None:
    stats = report.stats
    pair = f"{report.pair[0]} vs {report.pair[1]}"
    status = "EQUIVALENT" if report.clean else "DIVERGED"
    if report.clean and report.truncated:
        status = "INCONCLUSIVE (budget hit)"
    print(f"{name:<14} {pair:<22} {status}")
    print(f"  paths   : {stats.paths_checked} return "
          f"({stats.paths_proved} proved), "
          f"{stats.trap_paths_checked} trap "
          f"({stats.trap_agreements} agree, "
          f"{stats.whitelisted_trap_deletions} whitelisted), "
          f"{stats.unknown_paths} unknown")
    print(f"  queries : {stats.equivalence_queries} equivalence "
          f"({stats.equivalence_folded} folded), "
          f"{stats.replay_paths} replay paths "
          f"[{report.provenance}]")
    if show_paths or not report.clean:
        for verdict in report.verdicts:
            if not show_paths and verdict.status not in ("diverged",
                                                         "unknown"):
                continue
            witness = "" if verdict.counterexample is None \
                else f"  input={verdict.counterexample.hex()}"
            detail = f"  {verdict.detail}" if verdict.detail else ""
            print(f"  path {verdict.index:>3} [{verdict.kind:<6}] "
                  f"{verdict.status}{detail}{witness}")
    for divergence in report.divergences:
        print(f"  DIVERGENCE {divergence.describe()}")


def _save(store) -> None:
    """Persist ``store``; a failed save is reported and the run stands,
    as for ``python -m repro --verify --store``."""
    from ..faults import StoreError

    try:
        store.save()
    except StoreError as exc:
        print(f"  warning: store not saved: {exc}", file=sys.stderr)


def relcheck_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro relcheck",
        description="Translation validation: prove two optimization "
                    "levels of a workload equivalent on every path up "
                    "to the symbolic input bound (docs/relcheck.md).")
    parser.add_argument("workload", nargs="?",
                        help="registered workload name")
    parser.add_argument("--all", action="store_true",
                        help="check every registered workload")
    parser.add_argument("--levels", default="O0,OVERIFY",
                        help="the level pair to compare "
                             "(default O0,OVERIFY)")
    parser.add_argument("--input-bytes", type=int, default=4,
                        help="symbolic input size (default 4)")
    parser.add_argument("--max-paths", type=int, default=512,
                        help="reference-exploration path budget "
                             "(default 512)")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="exploration budget in seconds (default 60)")
    parser.add_argument("--whitelist", action="append", default=[],
                        metavar="KIND",
                        help="trap kind whose deletion by the optimized "
                             "level is licensed (e.g. division-by-zero); "
                             "repeatable")
    parser.add_argument("--store", metavar="PATH", default=None,
                        help="solver-knowledge store file: primes the "
                             "solver, memoizes whole runs "
                             "(docs/service.md)")
    parser.add_argument("--show-paths", action="store_true",
                        help="print every path verdict, not only "
                             "divergences")
    args = parser.parse_args(argv)

    if bool(args.workload) == args.all:
        parser.error("name one workload or pass --all")
    if args.input_bytes < 1:
        parser.error(f"--input-bytes must be >= 1, got {args.input_bytes}")
    if args.max_paths < 1:
        parser.error(f"--max-paths must be >= 1, got {args.max_paths}")
    if not math.isfinite(args.timeout) or args.timeout < 0:
        parser.error(f"--timeout must be a finite number >= 0, got "
                     f"{args.timeout}")
    try:
        levels = _parse_levels(args.levels)
        whitelist = _parse_whitelist(args.whitelist)
    except ValueError as exc:
        parser.error(str(exc))

    config = RelcheckConfig(input_bytes=args.input_bytes,
                            max_paths=args.max_paths,
                            timeout_seconds=args.timeout,
                            trap_whitelist=whitelist)
    store = None
    if args.store is not None:
        from ..service.store import SolverKnowledgeStore
        store = SolverKnowledgeStore(args.store)
        store.load()

    if args.all:
        names = [workload.name for workload in all_workloads()]
    else:
        try:
            names = [get_workload(args.workload).name]
        except KeyError as exc:
            parser.error(str(exc.args[0]))

    total_divergences = 0
    start = time.perf_counter()
    for name in names:
        report = relcheck_source(get_workload(name).source, levels=levels,
                                 config=config, store=store)
        _print_report(name, report, args.show_paths)
        total_divergences += len(report.divergences)
        if store is not None and report.provenance != "memo-hit":
            _save(store)
    elapsed = time.perf_counter() - start
    print(f"total    : {len(names)} workload(s), "
          f"{total_divergences} divergence(s) in {elapsed:.3f}s")
    return min(total_divergences, 99)


if __name__ == "__main__":
    sys.exit(relcheck_main())
