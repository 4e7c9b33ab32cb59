"""The ``python -m repro`` command-line driver.

Compile a registered workload (or a MiniC source file) at a named
optimization level or through a raw ``--passes`` pipeline string, print the
pipeline and compile statistics, and optionally hand the result to a
verification backend and/or run it concretely:

    python -m repro wc                               # -OVERIFY build
    python -m repro wc --level O3 --run
    python -m repro wc --passes "simplifycfg,mem2reg,inline<threshold=5000,loops>,gvn"
    python -m repro grep --verify --backend "symex<searcher=bfs>"
    python -m repro wc --verify --store /tmp/knowledge.jsonl
    python -m repro --list-passes

The ``serve`` subcommand runs the verification service front door
(see ``docs/service.md``):

    python -m repro serve /tmp/verify.sock --store /tmp/knowledge.jsonl

The ``fuzz`` subcommand runs the differential fuzzer
(see ``docs/fuzzing.md``):

    python -m repro fuzz --seeds 200 --jobs 4
    python -m repro fuzz --seed 17 --minimize

The ``relcheck`` subcommand proves two optimization levels of a workload
equivalent path-by-path (see ``docs/relcheck.md``):

    python -m repro relcheck wc --levels O0,OVERIFY
    python -m repro relcheck --all
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import List, Optional

from .frontend import CompileError
from .ir import Module, verify_module
from .passes import (
    AnalysisManager, PipelineSpec, PipelineSyntaxError, format_pass,
    format_pipeline, parse_pipeline, registered_passes,
)
from .pipelines import (
    CompileOptions, CompilerSession, LEVEL_PIPELINES, OptLevel,
    build_pipeline_from_spec, level_spec, level_spec_string,
    parse_opt_level, with_entry_points, with_runtime_checks,
)
from .verification import (
    BackendSpecError, VerificationOutcome, VerificationRequest,
    backend_names, make_backend,
)
from .workloads import all_workloads, get_workload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Compile (and optionally verify) a workload with the "
                    "-OVERIFY reproduction compiler.")
    parser.add_argument("workload", nargs="?",
                        help="registered workload name (see --list-workloads)")
    parser.add_argument("--source", metavar="FILE",
                        help="compile a MiniC source file instead of a "
                             "registered workload")
    parser.add_argument("--level", default="-OVERIFY",
                        help="optimization level: O0/O1/O2/O3/OVERIFY "
                             "(write --level=-O2 for the dashed spelling; "
                             "default -OVERIFY)")
    parser.add_argument("--passes", metavar="PIPELINE",
                        help="raw pipeline string overriding --level, e.g. "
                             "'simplifycfg,mem2reg,gvn'")
    parser.add_argument("--no-checks", action="store_true",
                        help="disable -OVERIFY runtime-check insertion")
    parser.add_argument("--show-pipeline", action="store_true",
                        help="only print the pipeline string and exit")
    parser.add_argument("--explain-paths", action="store_true",
                        help="run the pipeline one pass at a time, "
                             "symbolically exploring after each, and print "
                             "the per-pass path-count deltas")
    parser.add_argument("--verify", action="store_true",
                        help="run the verification backend on the build")
    parser.add_argument("--run", action="store_true",
                        help="run the build concretely on the workload's "
                             "sample input")
    parser.add_argument("--backend", default="symex",
                        help="verification backend spec (default 'symex'; "
                             "e.g. 'symex<searcher=bfs>')")
    parser.add_argument("--store", metavar="PATH", default=None,
                        help="solver-knowledge store file for --verify: "
                             "primes the solver from past runs and "
                             "memoizes the verification (see "
                             "docs/service.md)")
    parser.add_argument("--input-bytes", type=int, default=None,
                        help="symbolic input size for --verify (default: "
                             "the workload's suggested size)")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="verification budget in seconds (default 60)")
    parser.add_argument("--list-workloads", action="store_true",
                        help="list registered workloads and exit")
    parser.add_argument("--list-passes", action="store_true",
                        help="list registered passes and exit")
    parser.add_argument("--list-levels", action="store_true",
                        help="print every level's pipeline string and exit")
    return parser


def _list_workloads() -> int:
    for workload in all_workloads():
        print(f"{workload.name:<12} [{workload.category}] "
              f"{workload.description}")
    return 0


def _list_passes() -> int:
    for info in registered_passes():
        params = ", ".join(p.key for p in info.params)
        suffix = f"  <{params}>" if params else ""
        print(f"{info.name:<16} {info.description}{suffix}")
    return 0


def _list_levels() -> int:
    for level, pipeline in LEVEL_PIPELINES.items():
        print(f"{level}:\n  {pipeline}")
    return 0


def _explain_paths(module: Module, spec: PipelineSpec, input_bytes: int,
                   timeout: float) -> int:
    """Run the pipeline one pass at a time, symbolically exploring the
    module after each, and print every pass's path-count delta.  This
    attributes the -O0 → -OVERIFY path collapse to individual passes
    instead of reporting only the endpoints."""
    from .symex import SymexLimits, explore

    verify_module(module)
    limits = SymexLimits(timeout_seconds=timeout)

    def count_paths():
        stats = explore(module, input_bytes, limits=limits).stats
        return stats.total_paths, stats.termination_reason

    baseline, truncated = count_paths()
    print(f"path counts over {input_bytes} symbolic input bytes "
          f"(single pipeline iteration):")
    marker = f"  [{truncated} budget hit]" if truncated else ""
    print(f"  {'(front end)':<36} {baseline:>7} paths{marker}")
    analyses = AnalysisManager()
    previous = baseline
    for pass_spec in spec.passes:
        stage = build_pipeline_from_spec(PipelineSpec((pass_spec,)),
                                         analyses=analyses)
        stage.run(module)
        verify_module(module)
        paths, truncated = count_paths()
        delta = f"{paths - previous:+d}" if paths != previous else ""
        marker = f"  [{truncated} budget hit]" if truncated else ""
        print(f"  {format_pass(pass_spec):<36} {paths:>7} paths  "
              f"{delta}{marker}")
        previous = paths
    removed = baseline - previous
    print(f"total    : {baseline} -> {previous} paths "
          f"({removed} removed, {removed / baseline:.0%})" if baseline
          else f"total    : {baseline} -> {previous} paths")
    return 0


def _lacks_main(module: Module) -> bool:
    """True when ``module`` defines no ``main`` to explore or run."""
    main = module.get_function_or_none("main")
    return main is None or main.is_declaration


_NO_MAIN = "error: program defines no function 'main'"


def _error_line(exc: Exception, source_path: Optional[str]) -> str:
    """The ``error:`` line of a failed build; a diagnostic in the program
    names the ``--source`` file, one in the library keeps its name."""
    if source_path and isinstance(exc, CompileError) and \
            exc.location.filename == "<source>":
        location = exc.location._replace(filename=source_path)
        return f"error: {location}: {exc.message}"
    return f"error: {exc}"


def _verify_with_store(path: str, spec: str, module: Module,
                       request: VerificationRequest) -> VerificationOutcome:
    """Verify as the service does: build backend ``spec`` on the table of
    the store at ``path``, load it, answer from its memo or verify and
    record, then save.  A failed save is reported and does not fail it."""
    from .faults import StoreError
    from .service.store import (
        SolverKnowledgeStore, verification_fingerprint, verify_memoized,
    )

    store = SolverKnowledgeStore(path)
    backend = make_backend(spec, caches=store.caches)
    store.load()
    key = verification_fingerprint(module, request, backend.describe())
    outcome = verify_memoized(store, backend, module, request, key)
    if outcome.provenance != "memo-hit":
        try:
            store.save()
        except StoreError as exc:
            print(f"  warning: store not saved: {exc}", file=sys.stderr)
    return outcome


def _serve_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the verification service: an async front door "
                    "accepting compile-and-verify jobs over a local "
                    "socket, backed by a persistent solver-knowledge "
                    "store (see docs/service.md).")
    parser.add_argument("socket", help="unix-domain socket path to serve on")
    parser.add_argument("--store", metavar="PATH", default=None,
                        help="solver-knowledge store file (default: "
                             "memory-only, nothing persists)")
    parser.add_argument("--backend", default="symex",
                        help="verification backend spec for every job "
                             "(default 'symex')")
    parser.add_argument("--pool", type=int, default=2,
                        help="worker threads verifying concurrently "
                             "(default 2)")
    args = parser.parse_args(argv)
    if args.pool < 1:
        parser.error(f"--pool must be >= 1, got {args.pool}")
    from .service import VerificationServer

    try:
        server = VerificationServer(args.socket, store_path=args.store,
                                    backend=args.backend,
                                    pool_size=args.pool)
    except BackendSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"serving  : {args.socket}")
    print(f"store    : {args.store or '(memory-only)'}")
    print(f"backend  : {server.backend.describe()}  pool={args.pool}")
    try:
        server.run()
    except KeyboardInterrupt:
        pass
    stats = server.stats
    print(f"done     : {stats['jobs_completed']} jobs "
          f"({stats['memo_hits']} memo hits, "
          f"{stats['jobs_deduped']} deduped, "
          f"{stats['jobs_failed']} failed)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "fuzz":
        from .fuzz.cli import fuzz_main
        return fuzz_main(argv[1:])
    if argv and argv[0] == "relcheck":
        from .relcheck.cli import relcheck_main
        return relcheck_main(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_workloads:
        return _list_workloads()
    if args.list_passes:
        return _list_passes()
    if args.list_levels:
        return _list_levels()

    if args.input_bytes is not None and args.input_bytes < 1:
        parser.error(f"--input-bytes must be >= 1, got {args.input_bytes}")
    if not math.isfinite(args.timeout) or args.timeout < 0:
        parser.error(f"--timeout must be a finite number >= 0, got "
                     f"{args.timeout}")
    try:
        level = parse_opt_level(args.level)
    except ValueError as exc:
        parser.error(str(exc))

    if args.source:
        try:
            with open(args.source, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            parser.error(f"cannot read {args.source}: {exc}")
        name = args.source
        input_bytes = args.input_bytes if args.input_bytes is not None else 4
        sample_input = b"the quick brown fox"
    elif args.workload:
        try:
            workload = get_workload(args.workload)
        except KeyError as exc:
            parser.error(str(exc.args[0]))
        source, name = workload.source, workload.name
        input_bytes = args.input_bytes if args.input_bytes is not None \
            else workload.default_input_bytes
        sample_input = workload.sample_input
    else:
        parser.error("name a workload or pass --source FILE "
                     "(--list-workloads shows what is registered)")

    options = CompileOptions(level=level,
                             enable_runtime_checks=not args.no_checks)
    session = CompilerSession()

    if args.explain_paths:
        try:
            if args.passes is not None:
                spec = parse_pipeline(args.passes)
            else:
                spec = with_runtime_checks(level_spec(level),
                                           not args.no_checks)
                spec = with_entry_points(spec, {"main"})
            module = session.front_end(source, options)
            if _lacks_main(module):
                print(_NO_MAIN, file=sys.stderr)
                return 1
            return _explain_paths(module, spec, input_bytes, args.timeout)
        except (CompileError, PipelineSyntaxError) as exc:
            print(_error_line(exc, args.source), file=sys.stderr)
            return 1

    try:
        if args.passes is not None:
            spec = parse_pipeline(args.passes)
            if args.show_pipeline:
                print(format_pipeline(spec))
                return 0
            start = time.perf_counter()
            module = session.front_end(source, options)
            pipeline = build_pipeline_from_spec(spec)
            pipeline.run_until_fixpoint(module)
            verify_module(module)
            elapsed = time.perf_counter() - start
            pipeline_text = format_pipeline(spec)
            instruction_count = module.instruction_count()
            analysis_stats = pipeline.analyses.stats
        else:
            if args.show_pipeline:
                print(level_spec_string(level))
                return 0
            result = session.compile(source, options)
            module = result.module
            elapsed = result.compile_seconds
            pipeline_text = result.pipeline_text
            instruction_count = result.instruction_count
            analysis_stats = result.analysis_stats
    except (CompileError, PipelineSyntaxError) as exc:
        print(_error_line(exc, args.source), file=sys.stderr)
        return 1
    if (args.verify or args.run) and _lacks_main(module):
        print(_NO_MAIN, file=sys.stderr)
        return 1

    print(f"workload : {name}")
    print(f"level    : {level if args.passes is None else '(raw --passes)'}")
    print(f"pipeline : {pipeline_text}")
    print(f"compiled : {instruction_count} instructions "
          f"in {elapsed:.3f}s")
    if analysis_stats is not None:
        print(f"analysis : {analysis_stats.hits} hits / "
              f"{analysis_stats.misses} misses "
              f"({analysis_stats.hit_rate:.0%} hit rate)")

    request = VerificationRequest(symbolic_input_bytes=input_bytes,
                                  concrete_input=sample_input,
                                  timeout_seconds=args.timeout)

    if args.verify:
        try:
            if args.store:
                outcome = _verify_with_store(args.store, args.backend,
                                             module, request)
            else:
                outcome = make_backend(args.backend).verify(module, request)
        except BackendSpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(f"known backends: {', '.join(backend_names())}",
                  file=sys.stderr)
            return 1
        reason = outcome.termination_reason or \
            ("timeout" if outcome.timed_out else "")
        budget = f" ({reason} budget hit)" if reason else ""
        print(f"verify   : {outcome.backend}: {outcome.paths} paths, "
              f"{outcome.errors} errors, "
              f"{outcome.instructions} instructions "
              f"in {outcome.seconds:.3f}s"
              f"{budget}"
              f"{f' [{outcome.provenance}]' if args.store else ''}")
        if outcome.engine_errors:
            print(f"  warning: {outcome.engine_errors} path(s) abandoned "
                  f"to contained engine errors")
        for signature in sorted(outcome.bug_signatures):
            print(f"  bug    : {', '.join(signature)}")

    if args.run:
        outcome = make_backend("interp").verify(module, request)
        print(f"run      : returned {outcome.return_value}, "
              f"{outcome.instructions} instructions "
              f"in {outcome.seconds:.3f}s"
              f"{' (crashed)' if outcome.errors else ''}")

    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `python -m repro --list-passes | head`
        sys.exit(0)
