"""A stateful compilation session sharing work across pipeline runs.

The paper's workflow compiles the *same* source several times — once per
build configuration (Table 1/3 sweep all levels, the ablation harness
toggles single knobs).  The free-function driver
(:func:`repro.pipelines.compiler.compile_source`) re-parses and re-analyses
the source and recomputes every IR analysis from scratch on each call.
:class:`CompilerSession` is the stateful driver that removes that repeated
work:

* **Front-end cache** — the linked source is parsed and semantically
  analysed once; every compile lowers a fresh module from the cached,
  analysed translation unit (lowering is deterministic and side-effect
  free on the unit, which the test suite pins down).
* **Pristine analysis exchange** — once a source is compiled a second
  time, the session lowers one extra *reference* module that is never
  mutated.  Freshly lowered working modules are structurally identical to
  it (same functions, same blocks, same epochs), so CFG-shaped analyses
  (CFG, dominator tree, loop info) computed on the reference can be
  *translated* onto a working function in linear time instead of being
  recomputed — the ROADMAP's "share the cache across the per-level
  pipelines" item.  A transfer is only attempted while the working
  function is still at its birth epoch; the first pass that mutates it
  closes the window and the normal per-pipeline cache takes over.
* **Module-keyed analysis-manager pool** — every module the session
  compiles keeps its :class:`~repro.analysis.AnalysisManager`, so
  follow-up pipeline runs over a result module reuse its warm cache.

``compile_source`` / ``compile_at_all_levels`` are thin wrappers over a
one-shot session, and the experiment harness routes all per-workload
compiles through one session.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..analysis import (
    AnalysisManager, AnalysisManagerStats, AnalysisTransferSource, CFG,
    CFG_ANALYSIS, DOMTREE_ANALYSIS, DominatorTree, LOOPS_ANALYSIS, LoopInfo,
)
from ..frontend import analyze, lower, parse
from ..ir import BasicBlock, Function, Module, verify_module
from ..passes import format_pipeline
from .levels import OptLevel, build_pipeline
from .compiler import (
    CompilationResult, CompileOptions, link_sources, linked_prelude_lines,
)

#: Analyses the exchange can translate across sibling modules.  Value
#: ranges are deliberately excluded: they are value-keyed, so translating
#: them needs an instruction-level map; they are recomputed instead (their
#: CFG dependency still transfers).
TRANSFERABLE_ANALYSES = (CFG_ANALYSIS, DOMTREE_ANALYSIS, LOOPS_ANALYSIS)


class _SiblingLink:
    """One working function paired with its pristine reference twin."""

    __slots__ = ("function", "reference", "birth_epoch", "_block_map")

    def __init__(self, function: Function, reference: Function) -> None:
        self.function = function
        self.reference = reference
        self.birth_epoch = function.ir_epoch
        self._block_map: Optional[Dict[int, BasicBlock]] = None

    def block_map(self) -> Optional[Dict[int, BasicBlock]]:
        """``id(reference block) -> working block``, or ``None`` when the
        twins turn out not to correspond (defensive; lowering determinism
        makes this the never-taken path)."""
        if self._block_map is None:
            if len(self.reference.blocks) != len(self.function.blocks):
                self._block_map = {}
            else:
                mapping: Dict[int, BasicBlock] = {}
                for ref_block, work_block in zip(self.reference.blocks,
                                                 self.function.blocks):
                    if ref_block.name != work_block.name:
                        mapping = {}
                        break
                    mapping[id(ref_block)] = work_block
                self._block_map = mapping
        return self._block_map or None


class PristineAnalysisExchange(AnalysisTransferSource):
    """Serves analysis-cache misses on freshly lowered modules by
    translating the pristine reference module's analyses (see module
    docstring)."""

    def __init__(self, reference_module: Module) -> None:
        self.reference_module = reference_module
        #: Cache of analyses over the (immutable) reference module.
        self.manager = AnalysisManager()
        self._reference_functions: Dict[str, Function] = {
            fn.name: fn for fn in reference_module.defined_functions()}
        self._links: Dict[int, _SiblingLink] = {}

    def adopt(self, module: Module) -> List[int]:
        """Register every function of a freshly lowered ``module`` that has
        a structural twin in the reference.  Returns a token for
        :meth:`release`."""
        token: List[int] = []
        for function in module.defined_functions():
            reference = self._reference_functions.get(function.name)
            if reference is None or \
                    reference.ir_epoch != function.ir_epoch:
                continue
            self._links[id(function)] = _SiblingLink(function, reference)
            token.append(id(function))
        return token

    def release(self, token: List[int]) -> None:
        """Forget the links registered by one :meth:`adopt` call (links pin
        their functions, so dropping them also lets dead IR go)."""
        for key in token:
            self._links.pop(key, None)

    def lookup(self, name: str, function: Function,
               manager: AnalysisManager) -> Optional[object]:
        if name not in TRANSFERABLE_ANALYSES:
            return None
        link = self._links.get(id(function))
        if link is None or link.function is not function:
            return None
        if function.ir_epoch != link.birth_epoch:
            return None  # mutated since lowering: transfer window closed
        block_map = link.block_map()
        if block_map is None:
            return None
        reference = link.reference
        if name == CFG_ANALYSIS:
            return CFG.remapped(self.manager.cfg(reference), block_map,
                                function)
        if name == DOMTREE_ANALYSIS:
            return DominatorTree.remapped(
                self.manager.dominator_tree(reference), block_map, function,
                cfg=manager.cfg(function))
        return LoopInfo.remapped(
            self.manager.loop_info(reference), block_map, function,
            domtree=manager.dominator_tree(function),
            cfg=manager.cfg(function))


class _FrontEndEntry:
    """Cached front-end state for one linked source."""

    __slots__ = ("unit", "exchange")

    def __init__(self, unit: object) -> None:
        self.unit = unit
        self.exchange: Optional[PristineAnalysisExchange] = None


@dataclass
class SessionStats:
    """What a session saved (and spent) so far."""

    compiles: int = 0
    #: Front-end cache behaviour: a parse is one full parse+sema run.
    frontend_parses: int = 0
    frontend_reuses: int = 0
    #: Lowered working modules (one per compile).
    lowerings: int = 0
    #: Extra pristine reference modules lowered for the analysis exchange.
    reference_lowerings: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "compiles": self.compiles,
            "frontend_parses": self.frontend_parses,
            "frontend_reuses": self.frontend_reuses,
            "lowerings": self.lowerings,
            "reference_lowerings": self.reference_lowerings,
        }


class CompilerSession:
    """A stateful compiler driver: repeated compiles share front-end work
    and analysis caches (see module docstring).

    Parameters
    ----------
    default_options:
        Options used when :meth:`compile` is called without any; a copy is
        taken per compile, so the instance handed in is never mutated.
    """

    def __init__(self, default_options: Optional[CompileOptions] = None
                 ) -> None:
        self.default_options = default_options or CompileOptions()
        self.stats = SessionStats()
        self._frontend: Dict[str, _FrontEndEntry] = {}
        #: id(module) -> (module, its analysis manager): the module-keyed
        #: pool that keeps per-module caches warm for follow-up runs.
        self._pool: Dict[int, Tuple[Module, AnalysisManager]] = {}
        self._compile_stats: List[AnalysisManagerStats] = []

    # ------------------------------------------------------------- caches
    def manager_for(self, module: Module) -> AnalysisManager:
        """The pooled analysis manager for ``module`` (created on first
        use).  Drivers running extra pipelines over a compiled module reuse
        its warm cache through this."""
        entry = self._pool.get(id(module))
        if entry is not None and entry[0] is module:
            return entry[1]
        manager = AnalysisManager()
        self._register_manager(module, manager)
        return manager

    def _register_manager(self, module: Module,
                          manager: AnalysisManager) -> None:
        self._pool[id(module)] = (module, manager)
        self._compile_stats.append(manager.stats)

    @property
    def analysis_stats(self) -> AnalysisManagerStats:
        """Aggregate analysis-cache behaviour across every compile of this
        session, including the pristine reference caches."""
        total = AnalysisManagerStats()
        for stats in self._compile_stats:
            total.merge(stats)
        for entry in self._frontend.values():
            if entry.exchange is not None:
                total.merge(entry.exchange.manager.stats)
        return total

    def _frontend_entry(self, full_source: str,
                        prelude_lines: int) -> _FrontEndEntry:
        entry = self._frontend.get(full_source)
        if entry is None:
            unit = parse(full_source, prelude_lines=prelude_lines)
            analyze(unit)
            entry = _FrontEndEntry(unit)
            self._frontend[full_source] = entry
            self.stats.frontend_parses += 1
        else:
            self.stats.frontend_reuses += 1
            if entry.exchange is None:
                # Second compile of this source: from now on it pays to keep
                # a pristine reference module whose analyses every further
                # compile can translate instead of recompute.
                reference = lower(entry.unit, "reference")
                entry.exchange = PristineAnalysisExchange(reference)
                self.stats.reference_lowerings += 1
        return entry

    # ------------------------------------------------------------ compile
    def compile(self, program_source: str,
                options: Optional[CompileOptions] = None,
                level: Optional[OptLevel] = None) -> CompilationResult:
        """Compile ``program_source`` at the requested level.

        ``level`` is a convenience shortcut; when both ``options`` and
        ``level`` are given, ``level`` wins.  The caller's options object is
        never mutated.
        """
        base = options or self.default_options
        options = replace(base) if level is None else replace(base,
                                                              level=level)
        start = time.perf_counter()
        full_source = link_sources(program_source, options)
        entry = self._frontend_entry(
            full_source, linked_prelude_lines(full_source, program_source))

        module = lower(entry.unit, options.module_name)
        module.metadata["opt_level"] = str(options.level)
        self.stats.lowerings += 1

        manager = AnalysisManager(transfer_source=entry.exchange)
        self._register_manager(module, manager)
        token: List[int] = []
        if entry.exchange is not None:
            token = entry.exchange.adopt(module)

        pipeline = build_pipeline(
            options.level,
            entry_points=options.entry_points,
            verify_after_each=options.verify_after_each_pass,
            enable_checks=options.enable_runtime_checks,
            analyses=manager,
        )
        try:
            pipeline.run_until_fixpoint(module)
        finally:
            if entry.exchange is not None:
                entry.exchange.release(token)
        verify_module(module)
        self.stats.compiles += 1
        elapsed = time.perf_counter() - start

        return CompilationResult(
            module=module,
            level=options.level,
            compile_seconds=elapsed,
            stats=pipeline.stats,
            instruction_count=module.instruction_count(),
            source_size=len(program_source),
            pass_history=list(pipeline.history),
            analysis_stats=manager.stats,
            pipeline_text=(format_pipeline(pipeline.spec)
                           if pipeline.spec is not None else ""),
        )

    def compile_and_verify(self, program_source: str,
                           options: Optional[CompileOptions] = None,
                           level: Optional[OptLevel] = None,
                           backend: object = "symex",
                           request: Optional[object] = None) -> Tuple[
                               CompilationResult, object]:
        """Compile ``program_source`` and hand the result to a verification
        backend — the one compile-then-verify plumbing path the CLI, the
        verification service, and tests share.

        ``backend`` is a spec string resolved through
        :func:`repro.verification.make_backend` (so ``"symex<store=...>"``
        reaches the persistent knowledge store) or a prebuilt
        :class:`~repro.verification.VerificationBackend` — the service
        passes one with injected shared solver caches.  Returns
        ``(compilation_result, verification_outcome)``.
        """
        # Imported here so the session stays usable without pulling the
        # execution engines in (backends register themselves on import).
        from ..verification import VerificationRequest, make_backend

        result = self.compile(program_source, options=options, level=level)
        if isinstance(backend, str):
            backend = make_backend(backend)
        if request is None:
            request = VerificationRequest()
        outcome = backend.verify(result.module, request)
        return result, outcome

    def compile_and_validate(self, program_source: str,
                             levels: Optional[List[OptLevel]] = None,
                             options: Optional[CompileOptions] = None,
                             relcheck_config: Optional[object] = None,
                             store: Optional[object] = None) -> Tuple[
                                 Dict[OptLevel, CompilationResult], object]:
        """Compile at two levels and translation-validate the pair.

        The cross-level counterpart of :meth:`compile_and_verify`: the
        same front end feeds both compilations, then the relcheck
        product driver (:mod:`repro.relcheck`) proves the optimized
        module path-equivalent to the reference.  Default pair: the
        paper's (-O0, -OVERIFY).  ``relcheck_config`` is a
        :class:`~repro.relcheck.RelcheckConfig`; ``store`` an optional
        :class:`~repro.service.store.SolverKnowledgeStore` for warm
        reruns.  Returns ``({level: compilation_result}, report)``.
        """
        # Imported lazily so sessions stay usable without the execution
        # engines (mirrors compile_and_verify).
        from ..relcheck import relcheck_modules

        levels = levels or [OptLevel.O0, OptLevel.OVERIFY]
        if len(levels) != 2:
            raise ValueError("compile_and_validate needs exactly two "
                             f"levels, got {len(levels)}")
        results = self.compile_at_levels(program_source, levels=levels,
                                         options=options)
        report = relcheck_modules(results[levels[0]].module,
                                  results[levels[1]].module,
                                  config=relcheck_config,
                                  pair=(str(levels[0]), str(levels[1])),
                                  store=store)
        return results, report

    def compile_at_levels(self, program_source: str,
                          levels: Optional[List[OptLevel]] = None,
                          options: Optional[CompileOptions] = None
                          ) -> Dict[OptLevel, CompilationResult]:
        """Compile the same source at several levels (Table 1/3 shape),
        sharing the front end and the pristine analysis exchange."""
        levels = levels or [OptLevel.O0, OptLevel.O2, OptLevel.O3,
                            OptLevel.OVERIFY]
        return {level: self.compile(program_source, options=options,
                                    level=level)
                for level in levels}
