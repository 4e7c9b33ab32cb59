#!/usr/bin/env python3
"""Figure 3: the three build configurations of one project.

A development team keeps (at least) three configurations of the same source:

* a debug build (``-O0`` here, standing in for ``-g -Wall``),
* a release build (``-O3 -DNDEBUG``), and — the paper's proposal —
* a verification build (``-OVERIFY``) handed to automated analysis tools.

This example builds one Coreutils-like utility in all three configurations
through a single :class:`CompilerSession` (so the program is parsed
once), prints each pipeline in the
registry's textual syntax, runs the release build on concrete input, and
runs the verification build through the symbolic-execution backend to
produce bug reports and a generated test suite.

Run with:  python examples/build_chain.py [workload-name]
"""

import sys

from repro.harness import format_pass_history
from repro.pipelines import CompilerSession, OptLevel, level_spec
from repro.verification import VerificationRequest, make_backend
from repro.workloads import get_workload


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "grep"
    workload = get_workload(name)
    print(f"project: {name} — {workload.description}\n")

    configurations = {
        "debug & develop": OptLevel.O0,
        "release": OptLevel.O3,
        "automated analysis": OptLevel.OVERIFY,
    }

    session = CompilerSession()
    built = {}
    for purpose, level in configurations.items():
        compiled = session.compile(workload.source, level=level)
        built[purpose] = compiled
        passes = [str(p) for p in level_spec(level)]
        libc = "verification libC" if level is OptLevel.OVERIFY \
            else "execution libC"
        print(f"[{purpose:>18}] {level}  ({len(passes)} passes, links {libc})")
        print(f"{'':>21}passes: {','.join(passes[:6])}"
              f"{',...' if len(passes) > 6 else ''}")
        print(f"{'':>21}static instructions: {compiled.instruction_count}")
        if compiled.analysis_stats is not None:
            cache = compiled.analysis_stats
            print(f"{'':>21}analysis cache: {cache.hits} hits / "
                  f"{cache.misses} misses "
                  f"({cache.hit_rate:.0%} hit rate)")
    print()

    print("The -OVERIFY pipeline as a textual spec (parse_pipeline accepts "
          "this back):")
    print(f"  {built['automated analysis'].pipeline_text}\n")

    print("What the session shared across the three builds:")
    for key, value in session.stats.as_dict().items():
        print(f"  {key:<22}{value}")
    print()

    print("Per-pass timing of the verification pipeline (cached analyses):")
    overify = built["automated analysis"]
    print(format_pass_history(overify.pass_history[:12],
                              title="-OVERIFY pipeline (first 12 pass runs)"))
    print()

    request = VerificationRequest(
        symbolic_input_bytes=4,
        concrete_input=b"vXhello worldX\n",
        timeout_seconds=60.0,
    )

    print("Running the release build on concrete input "
          "(what end users execute):")
    release = make_backend("interp").verify(built["release"].module, request)
    print(f"  exit value: {release.return_value}, "
          f"{release.instructions} instructions executed\n")

    print("Running the verification build through the symex backend "
          "(what the analysis bot does on every commit):")
    outcome = make_backend("symex").verify(built["automated analysis"].module,
                                           request)
    report = outcome.detail
    print(f"  explored paths : {outcome.paths}")
    print(f"  detected bugs  : {len(report.bugs)}")
    for bug in report.bugs:
        print(f"    - {bug.kind.value} in @{bug.function} "
              f"(triggering input {bug.test_input!r})")
    print("  generated tests:")
    for path in report.paths[:8]:
        print(f"    input={path.test_input!r} -> return {path.return_value}")


if __name__ == "__main__":
    main()
