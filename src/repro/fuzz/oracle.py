"""Differential oracle: every level and backend against every other.

For one generated program the oracle runs six families of checks (the
last opt-in), each one a semantics-preservation claim the optimization
levels make:

1. **Compile**: all five levels must accept the program (the generator
   only emits well-formed MiniC, so a level-specific compile error is a
   pass bug), and every compiled module must pass the full SSA dominance
   verifier — the per-pass structural checks skip dominance for speed, and
   the first bug this fuzzer found was exactly a pass leaving a
   non-dominating use behind.  A compile whose last round still changed
   the module stopped at the round cap: its passes undo each other.
2. **Per-level replay** (interp vs symex): every path the symbolic
   executor completes carries a solver-model ``test_input``; replaying it
   concretely on the *same* module must reach the same outcome (no crash
   for a completed path, matching constant return value, and the same
   error kind for every bug report's trigger input).
3. **Cross-level concrete** (level vs level): the union of all
   symex-derived test inputs plus a fixed boundary-value set must produce
   the same ``(crashed, error kind, return value)`` triple at every
   level.
4. **Cross-level bug sets**: when every level explored exhaustively, the
   set of bug *kinds* must agree (locations legitimately move under
   inlining, so full signatures are only compared within one module).
5. **Solver flag matrix** (optimized vs naive solver): re-exploring one
   module with the solver's switchable layers disabled (and with a
   half-on mix) must reproduce
   the same path count, the same bug signatures, and the same multiset of
   path outcomes — the same claim
   ``tests/test_solver_differential.py`` makes per query, made
   whole-program.
6. **Cross-level translation validation** (opt-in, ``--relcheck``): the
   relcheck product driver (:mod:`repro.relcheck`) *proves* one level
   pair path-equivalent on the same symbolic input — per-path return
   values discharged by the solver and trap-set agreement, where family
   3 only samples concrete inputs.  Every relcheck divergence carries a
   concrete counterexample input.

Engine failures (``stats.engine_errors`` / ``report.diagnostics``) are
divergences in their own right: the oracle's subject includes the
engines.

Path *counts* across levels are deliberately **not** compared — reshaping
the path space is the whole point of the levels (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..interp.errors import ErrorKind
from ..interp.interpreter import ExecutionResult, run_module
from ..ir import verify_module, verify_ssa_dominance
from ..passes import parse_pipeline
from ..pipelines.compiler import CompilationResult
from ..pipelines.levels import OptLevel
from ..pipelines.session import CompilerSession
from ..symex.executor import SymexLimits, SymexReport, explore
from ..symex.solver import Solver, SolverConfig
from ..symex.state import StateStatus
from .generator import GeneratorConfig, generate_program

#: Solver with every switchable layer off — the reference implementation
#: the optimized stack is differenced against (kept in sync with
#: ``tests/test_solver_differential.py``).
NAIVE_SOLVER_CONFIG = SolverConfig(cache=False, rewrite_equalities=False)

#: A deliberately lopsided mix: caches and the UBTree index on, equality
#: rewriting off — catches bugs that only show when the layers interact.
MIXED_SOLVER_CONFIG = SolverConfig(rewrite_equalities=False)

#: Module the solver flag matrix re-explores (the level with the richest
#: pipeline).
MATRIX_LEVEL = OptLevel.OVERIFY

#: The level pair family 6 proves path-equivalent, the paper's pair.  No
#: trap deletion is licensed: relcheck's trap whitelist stays empty.
RELCHECK_PAIR = (OptLevel.O0, OptLevel.OVERIFY)


@dataclass(frozen=True)
class OracleConfig:
    """Budgets and toggles for one seed's worth of checking."""

    searcher: str = "bfs"
    max_paths: int = 256
    max_instructions: int = 2_000_000
    max_forks: int = 4_096
    timeout_seconds: float = 60.0
    interp_max_steps: int = 2_000_000
    #: Cap on the deduplicated input set the cross-level concrete check
    #: replays (boundary inputs come first, then symex-derived ones in
    #: path order, so the cap drops only the tail).  Each input costs one
    #: interpreter run per level.
    max_concrete_inputs: int = 24
    #: Per-solver-query wall-clock cap.  The generated hash-accumulator
    #: constraints occasionally hand the backtracking solver a needle it
    #: would chase for minutes; an expired deadline degrades to the
    #: conservative "maybe satisfiable" answer, and the oracle marks the
    #: level truncated so no exhaustive comparison trusts it.
    query_deadline_seconds: float = 1.0
    check_solver_matrix: bool = True
    #: Named alternative solver configurations for the matrix.
    solver_matrix: Tuple[Tuple[str, SolverConfig], ...] = (
        ("naive", NAIVE_SOLVER_CONFIG),
        ("mixed", MIXED_SOLVER_CONFIG),
    )
    #: Family 6 (opt-in, each seed costs an extra product exploration):
    #: prove :data:`RELCHECK_PAIR` path-equivalent with the relcheck product
    #: driver instead of merely sampling concrete inputs.
    check_relcheck: bool = False

    def limits(self) -> SymexLimits:
        return SymexLimits(max_paths=self.max_paths,
                           max_instructions=self.max_instructions,
                           max_forks=self.max_forks,
                           timeout_seconds=self.timeout_seconds)


@dataclass
class Divergence:
    """One observed disagreement, with everything needed to reproduce it."""

    kind: str        # "compile" | "replay" | "concrete" | "bug-set" |
                     # "solver-matrix" | "relcheck" | "engine"
    detail: str
    seed: Optional[int] = None
    source: str = ""

    def repro_command(self) -> str:
        if self.seed is None:
            return "(no seed: divergence found via check_source)"
        return f"python -m repro fuzz --seed {self.seed} --minimize"

    def describe(self) -> str:
        prefix = f"seed {self.seed}: " if self.seed is not None else ""
        return f"{prefix}[{self.kind}] {self.detail}"


@dataclass
class SeedOutcome:
    """Everything the oracle learned about one program."""

    seed: Optional[int]
    source: str
    divergences: List[Divergence] = field(default_factory=list)
    path_counts: Dict[str, int] = field(default_factory=dict)
    #: True when some level's exploration hit a resource limit; the
    #: exhaustive cross-level comparisons are skipped for such seeds.
    truncated: bool = False

    @property
    def clean(self) -> bool:
        return not self.divergences


def _normalize_kind(kind: ErrorKind) -> str:
    """Bug kinds comparable across levels.

    ``runtime-checks`` (OVERIFY only) turns a would-be null dereference
    into an explicit CHECK_FAILURE; both spell "this pointer was null".
    """
    if kind is ErrorKind.CHECK_FAILURE:
        return ErrorKind.NULL_DEREFERENCE.value
    return kind.value


def _concrete_outcome(result: ExecutionResult) -> Tuple[str, ...]:
    """The comparable fingerprint of one concrete run."""
    if result.error is not None:
        return ("error", _normalize_kind(result.error.kind))
    value = result.return_value
    return ("ok", "" if value is None else str(value & 0xFFFFFFFF))


def _ordered_unique(items: Sequence[bytes]) -> List[bytes]:
    seen: List[bytes] = []
    for item in items:
        if item not in seen:
            seen.append(item)
    return seen


def _path_fingerprint(report: SymexReport) -> Tuple[Tuple[str, str], ...]:
    """Order-independent multiset of path outcomes for matrix compares."""
    records = []
    for path in report.paths:
        value = "" if path.return_value is None else str(path.return_value)
        records.append((path.status.value, value))
    return tuple(sorted(records))


def _changed_in_last_round(result: CompilationResult) -> List[str]:
    """The passes that changed the module in ``result``'s last round: none
    unless its fixpoint run stopped at the round cap."""
    round_length = len(parse_pipeline(result.pipeline_text).passes)
    return [run.pass_name for run in result.pass_history[-round_length:]
            if run.changed]


class _Oracle:
    def __init__(self, seed: Optional[int], source: str,
                 generator_config: GeneratorConfig,
                 config: OracleConfig) -> None:
        self.seed = seed
        self.source = source
        self.generator_config = generator_config
        self.config = config
        self.outcome = SeedOutcome(seed=seed, source=source)

    def diverge(self, kind: str, detail: str) -> None:
        self.outcome.divergences.append(
            Divergence(kind=kind, detail=detail, seed=self.seed,
                       source=self.source))

    # ----------------------------------------------------------- phases
    def compile_all(self) -> Dict[OptLevel, object]:
        session = CompilerSession()
        modules: Dict[OptLevel, object] = {}
        for level in OptLevel:
            try:
                result = session.compile(self.source, level=level)
                verify_module(result.module)
                verify_ssa_dominance(result.module)
                modules[level] = result.module
            except Exception as error:  # CompileError and anything worse
                self.diverge(
                    "compile",
                    f"{level} failed to compile a generated program: "
                    f"{type(error).__name__}: {error}")
                continue
            cycling = _changed_in_last_round(result)
            if cycling:
                self.diverge(
                    "compile",
                    f"{level} stopped at the round cap with changes in its "
                    f"last round ({', '.join(cycling)})")
        return modules

    def explore_level(self, level: OptLevel, module) -> SymexReport:
        report = explore(module, self.generator_config.input_bytes,
                         searcher=self.config.searcher,
                         limits=self.config.limits(),
                         solver=self._make_solver(None))
        self.outcome.path_counts[str(level)] = report.stats.total_paths
        if report.stats.termination_reason or \
                report.solver_stats.query_deadlines:
            self.outcome.truncated = True
        if report.stats.engine_errors or report.diagnostics:
            notes = "; ".join(report.diagnostics[:3])
            self.diverge(
                "engine",
                f"{level}: {report.stats.engine_errors} engine-error "
                f"path(s): {notes}")
        return report

    def replay_level(self, level: OptLevel, module,
                     report: SymexReport) -> None:
        """Interp-vs-symex agreement on the symex's own test inputs."""
        for path in report.paths:
            if path.test_input is None:
                continue
            result = self._run(module, path.test_input)
            if path.status is StateStatus.COMPLETED:
                if result.error is not None:
                    self.diverge(
                        "replay",
                        f"{level}: symex completed on input "
                        f"{path.test_input!r} but interp raised "
                        f"{result.error.kind.value}")
                elif (path.return_value is not None and
                      result.return_value is not None and
                      path.return_value != result.return_value):
                    self.diverge(
                        "replay",
                        f"{level}: input {path.test_input!r} returned "
                        f"{result.return_value} under interp but symex "
                        f"proved {path.return_value}")
        for bug in report.bugs:
            if bug.test_input is None:
                continue
            result = self._run(module, bug.test_input)
            if result.error is None:
                self.diverge(
                    "replay",
                    f"{level}: symex reported {bug.kind.value} on input "
                    f"{bug.test_input!r} but interp completed "
                    f"(returned {result.return_value})")
            elif _normalize_kind(result.error.kind) != \
                    _normalize_kind(bug.kind):
                self.diverge(
                    "replay",
                    f"{level}: input {bug.test_input!r} raised "
                    f"{result.error.kind.value} under interp but symex "
                    f"reported {bug.kind.value}")

    def cross_level_concrete(self, modules: Dict[OptLevel, object],
                             reports: Dict[OptLevel, SymexReport]) -> None:
        inputs: List[bytes] = list(self.generator_config.concrete_inputs())
        for level in OptLevel:
            report = reports.get(level)
            if report is None:
                continue
            for path in report.paths:
                if path.test_input is not None:
                    inputs.append(path.test_input)
            for bug in report.bugs:
                if bug.test_input is not None:
                    inputs.append(bug.test_input)
        capped = _ordered_unique(inputs)[:self.config.max_concrete_inputs]
        for data in capped:
            outcomes: List[Tuple[OptLevel, Tuple[str, ...]]] = []
            for level in OptLevel:
                module = modules.get(level)
                if module is None:
                    continue
                result = self._run(module, data)
                if (result.error is not None and
                        result.error.kind is ErrorKind.STEP_LIMIT):
                    break  # budget artifact, not semantics: skip input
                outcomes.append((level, _concrete_outcome(result)))
            else:
                if not outcomes:  # nothing compiled: reported as "compile"
                    continue
                baseline = outcomes[0]
                for level, outcome in outcomes[1:]:
                    if outcome != baseline[1]:
                        self.diverge(
                            "concrete",
                            f"input {data!r}: {baseline[0]} -> "
                            f"{baseline[1]} but {level} -> {outcome}")
                        break

    def cross_level_bugs(self, reports: Dict[OptLevel, SymexReport]
                         ) -> None:
        if self.outcome.truncated or len(reports) != len(OptLevel):
            return  # a truncated exploration may simply not have reached
                    # a bug; only exhaustive runs are comparable
        kind_sets = {
            level: frozenset(_normalize_kind(bug.kind)
                             for bug in report.bugs)
            for level, report in reports.items()
        }
        baseline_level = OptLevel.O0
        baseline = kind_sets[baseline_level]
        for level in OptLevel:
            if kind_sets[level] != baseline:
                self.diverge(
                    "bug-set",
                    f"bug kinds differ: {baseline_level} found "
                    f"{sorted(baseline) or '[]'} but {level} found "
                    f"{sorted(kind_sets[level]) or '[]'}")

    def solver_matrix(self, modules: Dict[OptLevel, object],
                      reports: Dict[OptLevel, SymexReport]) -> None:
        if not self.config.check_solver_matrix:
            return
        level = MATRIX_LEVEL
        module = modules.get(level)
        baseline = reports.get(level)
        if module is None or baseline is None:
            return
        if baseline.stats.termination_reason or \
                baseline.solver_stats.query_deadlines:
            return  # truncation points depend on exploration order
        want_paths = baseline.stats.total_paths
        want_bugs = baseline.bug_signatures()
        want_fingerprint = _path_fingerprint(baseline)
        for name, solver_config in self.config.solver_matrix:
            report = explore(module, self.generator_config.input_bytes,
                             searcher=self.config.searcher,
                             limits=self.config.limits(),
                             solver=self._make_solver(solver_config))
            if report.stats.termination_reason or \
                    report.solver_stats.query_deadlines:
                continue
            if report.stats.total_paths != want_paths:
                self.diverge(
                    "solver-matrix",
                    f"{level} with {name} solver explored "
                    f"{report.stats.total_paths} paths, default explored "
                    f"{want_paths}")
            if report.bug_signatures() != want_bugs:
                self.diverge(
                    "solver-matrix",
                    f"{level} with {name} solver found bugs "
                    f"{sorted(report.bug_signatures())}, default found "
                    f"{sorted(want_bugs)}")
            if _path_fingerprint(report) != want_fingerprint:
                self.diverge(
                    "solver-matrix",
                    f"{level} with {name} solver produced a different "
                    f"path-outcome multiset than the default solver")

    def relcheck_levels(self, modules: Dict[OptLevel, object]) -> None:
        """Family 6: prove :data:`RELCHECK_PAIR` path-equivalent."""
        if not self.config.check_relcheck:
            return
        # Imported lazily: the oracle's default families must not pull
        # the product driver in.
        from ..relcheck import RelcheckConfig, relcheck_modules
        level_a, level_b = RELCHECK_PAIR
        module_a = modules.get(level_a)
        module_b = modules.get(level_b)
        if module_a is None or module_b is None:
            return  # already reported as a "compile" divergence
        relcheck_config = RelcheckConfig(
            input_bytes=self.generator_config.input_bytes,
            max_paths=self.config.max_paths,
            max_instructions=self.config.max_instructions,
            max_forks=self.config.max_forks,
            timeout_seconds=self.config.timeout_seconds,
            query_deadline_seconds=self.config.query_deadline_seconds)
        report = relcheck_modules(module_a, module_b,
                                  config=relcheck_config,
                                  pair=(str(level_a), str(level_b)))
        if report.truncated:
            self.outcome.truncated = True
        for divergence in report.divergences:
            witness = "" if divergence.counterexample is None \
                else f" (input {divergence.counterexample.hex()})"
            self.diverge(
                "relcheck",
                f"{level_a} vs {level_b}: [{divergence.kind}] "
                f"{divergence.detail}{witness}")

    # ---------------------------------------------------------- helpers
    def _make_solver(self, base: Optional[SolverConfig]) -> Solver:
        config = base if base is not None else SolverConfig()
        return Solver(config=replace(
            config,
            query_deadline_seconds=self.config.query_deadline_seconds))

    def _run(self, module, data: bytes) -> ExecutionResult:
        return run_module(module, data,
                          max_steps=self.config.interp_max_steps)

    def run(self) -> SeedOutcome:
        modules = self.compile_all()
        reports: Dict[OptLevel, SymexReport] = {}
        for level in OptLevel:
            module = modules.get(level)
            if module is None:
                continue
            reports[level] = self.explore_level(level, module)
            self.replay_level(level, module, reports[level])
        self.cross_level_concrete(modules, reports)
        self.cross_level_bugs(reports)
        self.relcheck_levels(modules)
        self.solver_matrix(modules, reports)
        return self.outcome


def check_source(source: str,
                 generator_config: Optional[GeneratorConfig] = None,
                 config: Optional[OracleConfig] = None,
                 seed: Optional[int] = None) -> SeedOutcome:
    """Run the full oracle matrix over one MiniC program."""
    return _Oracle(seed, source, generator_config or GeneratorConfig(),
                   config or OracleConfig()).run()


def check_compiles(source: str, seed: Optional[int] = None) -> SeedOutcome:
    """Run only the compile family over one MiniC program: build it at
    every level, explore nothing.  Its divergences are exactly the
    "compile" ones :func:`check_source` reports."""
    oracle = _Oracle(seed, source, GeneratorConfig(), OracleConfig())
    oracle.compile_all()
    return oracle.outcome


def check_seed(seed: int,
               generator_config: Optional[GeneratorConfig] = None,
               config: Optional[OracleConfig] = None) -> SeedOutcome:
    """Generate the program for ``seed`` and run the oracle over it."""
    generator_config = generator_config or GeneratorConfig()
    source = generate_program(seed, generator_config)
    return check_source(source, generator_config, config, seed=seed)
