"""Optimization levels as data: named textual pipeline specs.

This module is the concrete realization of the paper's proposal: the same
pass library is assembled into CPU-oriented pipelines (``-O1``/``-O2``/
``-O3``) and into the verification-oriented ``-OVERIFY`` pipeline, which

1. selects passes suitable for verification and inhibits harmful ones
   (no CPU-specific scheduling; if-conversion and unswitching always on),
2. re-tunes cost parameters (branches are expensive: huge if-conversion and
   inlining thresholds, aggressive unrolling),
3. preserves extra metadata (the annotation pass), and
4. inserts runtime checks so that all failures become crashes.

Since the registry redesign each level is a *pipeline string* in
:data:`LEVEL_PIPELINES` — the same syntax :func:`repro.passes.parse_pipeline`
accepts from users — so a new pipeline shape is an edit to a table (or a
string passed to ``python -m repro --passes``), not to library code.  The
driver-level knobs (``entry_points``, ``enable_checks``) are spec
transforms over the parsed :class:`~repro.passes.PipelineSpec`.

The fourth element of the paper's design — linking a verification-optimized
C library — is handled by the driver: :mod:`repro.pipelines.compiler`
selects the library variant from :mod:`repro.vlibc`, and
:class:`~repro.pipelines.session.CompilerSession` links it.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Set

from ..passes import (
    AnalysisManager, PassManager, PipelineSpec, build_passes, parse_pipeline,
)


class OptLevel(enum.Enum):
    """The optimization levels the paper's Table 1 and Table 3 compare."""

    O0 = "-O0"
    O1 = "-O1"
    O2 = "-O2"
    O3 = "-O3"
    OVERIFY = "-OVERIFY"

    @property
    def is_verification_oriented(self) -> bool:
        return self is OptLevel.OVERIFY

    def __str__(self) -> str:
        return self.value


#: The prototype's name for the symbolic-execution flavour of -OVERIFY.
OSYMBEX = OptLevel.OVERIFY


def parse_opt_level(name: str) -> OptLevel:
    """Resolve a level from its flag spelling (``-O2``, ``O2``, ``overify``)."""
    text = name.strip().lstrip("-").upper()
    for level in OptLevel:
        if level.value.lstrip("-") == text:
            return level
    known = ", ".join(str(level) for level in OptLevel)
    raise ValueError(f"unknown optimization level '{name}'; known: {known}")


#: The scalar cleanup bundle run between the structural passes.
#: ``constprop`` is registered but not in it: ``instcombine`` runs the same
#: ``fold_instruction`` first, on every instruction, to a local fixpoint.
CLEANUP = "instcombine,dce,simplifycfg"

#: The shared scalarization prefix of -O2, -O3 and -OVERIFY.  It opens with
#: ``globaldce``: those levels end with it anyway, so pruning the functions
#: the roots cannot reach before any other pass runs changes no output and
#: saves optimizing code that is deleted later.  (The vlibc functions no
#: path reaches are never lowered: the session links only what the program
#: calls.)
_SCALARIZE = f"globaldce,simplifycfg,mem2reg,sroa,mem2reg,{CLEANUP}"

#: Re-promote and clean up after the inliner has merged bodies.
_POST_INLINE = f"simplifycfg,mem2reg,{CLEANUP}"

#: Every level's pipeline, as data.  The strings are canonical: they render
#: back to themselves through ``format_pipeline(parse_pipeline(s))``.
LEVEL_PIPELINES: Dict[OptLevel, str] = {
    # -O0 only removes blocks the front end itself made unreachable
    # (they would otherwise confuse the dominance-based analyses).
    OptLevel.O0: "simplifycfg",

    OptLevel.O1: f"simplifycfg,mem2reg,sccp,{CLEANUP}",

    # -O2 runs the full scalar stack: SCCP prunes provably-untaken edges
    # the instcombine/simplifycfg pair cannot reach, load elimination feeds
    # stored flags back into branch conditions, and the algebraic pass
    # canonicalizes/shrinks the compare chains so that even the modest
    # CPU-budget if-conversion (clang/gcc form selects for cheap diamonds
    # at -O2 too) can flatten the short-circuit residue left by inlining.
    OptLevel.O2: (
        f"{_SCALARIZE},"
        "inline<threshold=40>,"
        f"{_POST_INLINE},"
        "sccp,gvn,load-elim,jump-threading,licm,"
        f"{CLEANUP},"
        "algebraic-simplify,"
        "ifconvert<spec=4>,"
        f"{CLEANUP},"
        "gvn,dce,globaldce"
    ),

    # A CPU-oriented build limits the code growth of unswitching and keeps
    # the same modest speculation budget as -O2 (branches are cheap on a
    # CPU; what -O3 adds is loop restructuring, not speculation).
    OptLevel.O3: (
        f"{_SCALARIZE},"
        "inline<threshold=45,loops>,"
        f"{_POST_INLINE},"
        "sccp,gvn,load-elim,jump-threading,licm,"
        "loop-unswitch<size=40>,"
        f"{CLEANUP},"
        "loop-unroll<trips=4,size=128>,"
        f"{CLEANUP},"
        "algebraic-simplify,"
        "ifconvert<spec=4>,"
        f"{CLEANUP},"
        "gvn,dce,globaldce"
    ),

    # -OVERIFY re-tunes every cost model for a path-exploring verifier:
    # branches are far more expensive than on a CPU, so inline almost
    # everything, convert every convertible branch *before* duplicating
    # loops (Listing 2: loops whose bodies become branch-free do not need
    # to be unswitched at all), duplicate and unroll loops freely, then
    # insert runtime checks and export annotations.
    OptLevel.OVERIFY: (
        f"{_SCALARIZE},"
        "inline<threshold=5000,loops,const-bonus=100>,"
        f"{_POST_INLINE},"
        "sccp,gvn,load-elim,jump-threading,licm,"
        "algebraic-simplify,"
        "ifconvert<spec=64>,"
        f"{CLEANUP},"
        "gvn,"
        "ifconvert<spec=64>,"
        f"{CLEANUP},"
        "loop-unswitch<size=400,max=16>,"
        f"{CLEANUP},"
        "loop-unroll<trips=64,size=4096>,"
        f"{CLEANUP},"
        "ifconvert<spec=64>,"
        f"{CLEANUP},"
        "gvn,dce,globaldce,"
        "runtime-checks,simplifycfg,"
        "annotate"
    ),
}

def level_spec_string(level: OptLevel) -> str:
    """The textual pipeline spec for ``level``."""
    return LEVEL_PIPELINES[level]


def level_spec(level: OptLevel) -> PipelineSpec:
    """The parsed pipeline spec for ``level``."""
    return parse_pipeline(LEVEL_PIPELINES[level])


# --------------------------------------------------------------- transforms

def with_entry_points(spec: PipelineSpec,
                      entry_points: Iterable[str]) -> PipelineSpec:
    """Point every dead-function-elimination pass at ``entry_points``
    (the functions that must survive)."""
    roots = tuple(sorted(entry_points))
    return spec.map_passes(
        lambda p: p.with_param("roots", roots) if p.name == "globaldce" else p)


def with_runtime_checks(spec: PipelineSpec, enabled: bool) -> PipelineSpec:
    """Enable/disable the runtime-check stage (Table 2's "Generate runtime
    checks" ablation row).  Disabling removes the ``runtime-checks`` pass
    and the ``simplifycfg`` cleanup that follows it."""
    if enabled:
        return spec
    rebuilt = []
    passes = list(spec.passes)
    index = 0
    while index < len(passes):
        if passes[index].name == "runtime-checks":
            index += 1
            if index < len(passes) and passes[index].name == "simplifycfg":
                index += 1
            continue
        rebuilt.append(passes[index])
        index += 1
    return PipelineSpec(tuple(rebuilt))


# ----------------------------------------------------------------- builders

def build_pipeline_from_spec(spec: PipelineSpec,
                             verify_after_each: bool = False,
                             analyses: Optional[AnalysisManager] = None
                             ) -> PassManager:
    """Build a :class:`PassManager` running exactly the passes in ``spec``.

    The manager remembers the spec (``manager.spec``) so drivers can report
    the pipeline in its textual form.
    """
    manager = PassManager(verify_after_each=verify_after_each,
                          analyses=analyses)
    manager.extend(build_passes(spec))
    manager.spec = spec
    return manager


def build_pipeline_from_text(text: str,
                             verify_after_each: bool = False,
                             analyses: Optional[AnalysisManager] = None
                             ) -> PassManager:
    """Build a pipeline straight from its textual form (the CLI's
    ``--passes`` path)."""
    return build_pipeline_from_spec(parse_pipeline(text),
                                    verify_after_each=verify_after_each,
                                    analyses=analyses)


def build_pipeline(level: OptLevel, entry_points: Optional[Set[str]] = None,
                   verify_after_each: bool = False,
                   enable_checks: bool = True,
                   analyses: Optional[AnalysisManager] = None) -> PassManager:
    """Build the pass pipeline for ``level``.

    Parameters
    ----------
    entry_points:
        Functions that must survive dead-function elimination (defaults to
        ``{"main"}`` plus whatever the workload declares as its entry).
    verify_after_each:
        Run the IR verifier after every pass (used by the test suite).
    enable_checks:
        Whether -OVERIFY inserts runtime checks (Table 2's "Generate runtime
        checks" row); the Table 2 ablation toggles this.
    analyses:
        Analysis manager shared by every pass in the pipeline (one is
        created when omitted); passing one in lets a driver keep analysis
        caches warm across several pipelines over the same module.
    """
    spec = with_runtime_checks(level_spec(level), enable_checks)
    spec = with_entry_points(spec, entry_points or {"main"})
    return build_pipeline_from_spec(
        spec, verify_after_each=verify_after_each, analyses=analyses)


def pipeline_description(level: OptLevel) -> List[str]:
    """Names of the passes in the pipeline for ``level`` (for documentation
    and the build-chain example)."""
    return level_spec(level).pass_names()
