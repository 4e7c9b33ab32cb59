"""The pass pipeline's two work savers, and linking only the library
functions a program reaches, leave every module as it was.

-O2, -O3 and -OVERIFY open with ``globaldce`` (functions the roots cannot
reach are never optimized), and the pass manager skips a pass run when the
same pass spec last ran without a change and nothing has changed since.
Neither may change what a compile produces, and neither may leaving
``constprop`` out of the ``CLEANUP`` bundle.  Seven layers of coverage:

1. **IR identity** — a test-local reference driver runs the loop without
   either saver: every pass of the level spec except the leading
   ``globaldce``, each one in every round, until a round reports no
   change.  ``CompilerSession.compile`` must print the same module for
   every registry program at every level and for fuzz seeds 0–29;
   ``PIPELINE_SWEEP=all`` (nightly CI) widens the fuzz range to 0–119.
2. **No silent change** — the memo trusts every "no change" report, so a
   pass run that reports no change must leave the module as it was,
   metadata included.  Tier-1 checks every pass of every level spec on a
   fast registry subset; ``PIPELINE_SWEEP=all`` checks every program.
3. **Memo semantics** — what forces a re-run, which specs never share an
   entry, and that nothing carries over between compiles.
4. **Deterministic IR text** — mem2reg's phi placement no longer follows
   memory addresses, so the printed module is the same in every process.
5. **No constprop in CLEANUP** — ``instcombine`` runs the same folding
   first, so putting ``constprop`` back at the head of every bundle must
   print the same module (the no-silent-change program set).
6. **Linking** — the session lowers only the library functions a program
   reaches.  Against the textual link (``link_sources``: the whole
   library's source in front of the program, one unit) on the same
   program set as layer 1: -O2 and -O3 print the same module; -OVERIFY
   prints the same once the ``__overify_check_fail`` declaration, which
   may move to the end, is dropped; at -O0 and -O1 the module is the
   textual one without the library functions the program cannot reach.
   The same holds for a program that prototypes the library functions it
   calls.  Exploring every registry program's -O0 and -O1 build over one
   byte, to a path budget, gives the same counters and bugs as the
   textual link's.
7. **Convergence** — every level pipeline reaches a round that changes
   nothing before ``ROUND_CAP``, so a printed module is a function of the
   passes alone and not of the cap.  Read from ``session.compile``'s
   ``pass_history`` for every registry program at every level and for
   the layer-1 fuzz seeds.
"""

from __future__ import annotations

import functools
import json
import os
import re
import subprocess
import sys

import pytest

from repro.analysis import AnalysisManager, PreservedAnalyses
from repro.frontend import analyze, compile_to_ir, lower, parse
from repro.fuzz import generate_program
from repro.ir import print_module
from repro.passes import ROUND_CAP, Pass, build_passes, parse_pipeline
from repro.pipelines import (
    CLEANUP, LEVEL_PIPELINES, CompileOptions,
    CompilerSession, OptLevel, build_pipeline, build_pipeline_from_text,
    level_spec, link_sources, with_entry_points,
)
from repro.symex import SymexLimits, explore
from repro.vlibc import LIBC_FUNCTIONS
from repro.workloads import get_workload, workload_names

_WIDE = os.environ.get("PIPELINE_SWEEP", "") == "all"

#: Fuzz seeds compared against the reference driver.
FUZZ_SEEDS = range(120 if _WIDE else 30)

#: Programs the no-silent-change oracle runs: loops, inlining, runtime
#: checks and if-conversion, each level in well under a second.
_ORACLE_SUBSET = ["wc", "buggy_index", "tr", "fuzz-jump-thread-loop-phi"]
ORACLE_PROGRAMS = workload_names() if _WIDE else _ORACLE_SUBSET

LEVELS = list(OptLevel)


# ------------------------------------------------------- reference driver

def _lowered(source: str, level: OptLevel):
    """The session's linked front end: this driver tests the pass
    manager's savers, not linking (layer 6 does)."""
    module = CompilerSession().front_end(source, CompileOptions(level=level))
    module.metadata["opt_level"] = str(level)
    return module


def _level_passes(level: OptLevel, prune: bool):
    """The level's passes with the session's roots; without the leading
    ``globaldce`` unless ``prune``."""
    passes = build_passes(with_entry_points(level_spec(level), {"main"}))
    if not prune and passes[0].name == "globaldce":
        passes = passes[1:]
    return passes


def _drive(module, passes, after_pass=None):
    """The plain fixpoint loop: every pass, every round, no skipping."""
    analyses = AnalysisManager()
    for _ in range(ROUND_CAP):
        changed = False
        for pass_ in passes:
            preserved = PreservedAnalyses.from_legacy(
                pass_.run_on_module(module, analyses))
            analyses.after_module_pass(module, preserved)
            if after_pass is not None:
                after_pass(pass_, preserved.changed)
            changed |= preserved.changed
        if not changed:
            break
    return module


def reference_compile(source: str, level: OptLevel) -> str:
    module = _lowered(source, level)
    _drive(module, _level_passes(level, prune=False))
    return print_module(module)


@functools.lru_cache(maxsize=None)  # layers 1, 6 and 7 read the same
def session_compiles(source: str):
    """Per level, the printed module and the pass history."""
    session = CompilerSession()
    compiles = {}
    for level in LEVELS:
        result = session.compile(source, level=level)
        compiles[level] = (print_module(result.module), result.pass_history)
    return compiles


def session_outputs(source: str):
    return {level: text
            for level, (text, _) in session_compiles(source).items()}


# ------------------------------------------------------------ IR identity

@pytest.mark.parametrize("name", workload_names())
def test_registry_output_matches_reference_driver(name):
    source = get_workload(name).source
    for level, text in session_outputs(source).items():
        assert text == reference_compile(source, level), \
            f"{name} {level}: output differs from the reference driver"


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_output_matches_reference_driver(seed):
    source = generate_program(seed)
    for level, text in session_outputs(source).items():
        assert text == reference_compile(source, level), \
            f"fuzz seed {seed} {level}: output differs"


def _with_constprop(level: OptLevel):
    """The level's passes with ``constprop`` at the head of every
    ``CLEANUP`` bundle."""
    text = LEVEL_PIPELINES[level].replace(CLEANUP, f"constprop,{CLEANUP}")
    return build_passes(with_entry_points(parse_pipeline(text), {"main"}))


@pytest.mark.parametrize("name", ORACLE_PROGRAMS)
def test_constprop_in_cleanup_changes_no_output(name):
    """``instcombine`` runs constprop's ``fold_instruction`` first, so
    putting constprop back into ``CLEANUP`` must not change a module."""
    source = get_workload(name).source
    for level, text in session_outputs(source).items():
        module = _lowered(source, level)
        _drive(module, _with_constprop(level))
        assert print_module(module) == text, \
            f"{name} {level}: constprop in CLEANUP changes the output"


# ------------------------------------------------------------ convergence

def _assert_converges(source: str, label: str) -> None:
    """At every level, the last round of ``session.compile``, read from
    its pass history, changed nothing."""
    for level, (_, history) in session_compiles(source).items():
        round_length = len(_level_passes(level, prune=True))
        rounds, partial = divmod(len(history), round_length)
        assert not partial, f"{label} {level}: a partial round"
        changed = [r.pass_name for r in history[-round_length:] if r.changed]
        assert not changed, \
            f"{label} {level}: round {rounds} of at most {ROUND_CAP} " \
            f"still changed the module ({', '.join(changed)})"


@pytest.mark.parametrize("name", workload_names())
def test_registry_build_reaches_its_fixpoint(name):
    _assert_converges(get_workload(name).source, name)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_build_reaches_its_fixpoint(seed):
    _assert_converges(generate_program(seed), f"fuzz seed {seed}")


# ---------------------------------------------------------------- linking

@functools.lru_cache(maxsize=4)  # one program's two vlibc variants
def _analyzed_unit(full_source: str):
    unit = parse(full_source)
    analyze(unit)
    return unit


def _textual_link(source: str, level: OptLevel):
    """The reference link: one unit holding the whole library's source and
    the program, every library function lowered, then the level's
    pipeline as the session runs it."""
    options = CompileOptions(level=level)
    module = lower(_analyzed_unit(link_sources(source, options)),
                   options.module_name)
    module.metadata["opt_level"] = str(level)
    build_pipeline(level, entry_points=options.entry_points) \
        .run_until_fixpoint(module)
    return module


#: The first line of a printed function; group 1 is its name.
_FUNCTION_LINE = re.compile(r"^(?:define|declare) .*? @([\w.]+)\(", re.M)


def _dropping(text: str, names) -> str:
    """A printed module without the functions named in ``names``."""
    kept, skipping = [], False
    for line in text.splitlines():
        match = _FUNCTION_LINE.match(line)
        if match is not None:
            skipping = match.group(1) in names
        if not skipping:
            kept.append(line)
        elif not line:  # the blank line after a dropped function
            skipping = False
    return "\n".join(kept).rstrip() + "\n"


def _assert_link_matches_textual_link(source: str, label: str) -> None:
    program = {f.name for f in parse(source).functions
               if f.body is not None}
    for level, linked in session_outputs(source).items():
        textual = _textual_link(source, level)
        expected = print_module(textual)
        if level is OptLevel.OVERIFY:
            linked, expected = (_dropping(text, ["__overify_check_fail"])
                                for text in (linked, expected))
        elif level in (OptLevel.O0, OptLevel.O1):
            reachable = AnalysisManager().call_graph(textual) \
                .reachable_from(sorted(program | {"main"}))
            missing = set(textual.functions) - set(
                _FUNCTION_LINE.findall(linked))
            assert missing <= set(LIBC_FUNCTIONS) - reachable, \
                f"{label} {level}: reachable functions missing"
            expected = _dropping(expected, missing)
        assert linked == expected, \
            f"{label} {level}: the linked module differs from the textual link"


@pytest.mark.parametrize("name", workload_names())
def test_registry_link_matches_textual_link(name):
    _assert_link_matches_textual_link(get_workload(name).source, name)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_link_matches_textual_link(seed):
    _assert_link_matches_textual_link(generate_program(seed),
                                      f"fuzz seed {seed}")


def test_prototyped_library_functions_link_as_the_textual_link():
    source = ("int atoi(unsigned char *s);\n"
              "int isdigit(int c);\n"
              "int main(unsigned char *input, int len) {\n"
              "  return atoi(input) + isdigit(input[0]);\n"
              "}\n")
    _assert_link_matches_textual_link(source, "prototypes")


def _exploration(module):
    """Counters and bugs of a one-byte exploration to a path budget (a
    clock budget would cut runs where the machine is slow)."""
    report = explore(module, 1, limits=SymexLimits(max_paths=32))
    stats = report.stats
    return (stats.total_paths, stats.paths_errored,
            stats.instructions_interpreted, stats.forks,
            stats.termination_reason, sorted(report.bug_signatures()))


@pytest.mark.parametrize("name", workload_names())
def test_linked_exploration_matches_textual_link(name):
    source = get_workload(name).source
    session = CompilerSession()
    for level in (OptLevel.O0, OptLevel.O1):
        linked = session.compile(source, level=level).module
        assert _exploration(linked) == \
            _exploration(_textual_link(source, level)), f"{name} {level}"


def test_linking_lowers_only_the_library_functions_reached():
    source = get_workload("wc").source  # its functions call isspace alone
    session = CompilerSession()
    module = session.compile(source, level=OptLevel.O0).module
    assert list(module.functions) == \
        ["__overify_check_fail", "isspace", "emit", "main"]
    # Entry points are roots too; toupper calls islower.
    options = CompileOptions(entry_points={"main", "toupper"})
    module = session.compile(source, options, level=OptLevel.O0).module
    assert list(module.functions) == \
        ["__overify_check_fail", "isspace", "islower", "toupper", "emit",
         "main"]


# ------------------------------------------------------- no silent change

def _snapshot(module) -> str:
    """The printed module plus what the printer leaves out: function
    metadata and attributes."""
    lines = [print_module(module)]
    for function in module.functions.values():
        lines.append(f"{function.name} {sorted(function.metadata.items())} "
                     f"{sorted(function.attributes.items())}")
    return "\n".join(lines)


@pytest.mark.parametrize("level", LEVELS, ids=str)
@pytest.mark.parametrize("name", ORACLE_PROGRAMS)
def test_no_change_report_means_nothing_changed(name, level):
    module = _lowered(get_workload(name).source, level)
    passes = _level_passes(level, prune=True)
    state = {"snapshot": _snapshot(module), "checked": set()}

    def after_pass(pass_, changed):
        snapshot = _snapshot(module)
        if not changed:
            assert snapshot == state["snapshot"], \
                f"{pass_.spec_text} reported no change but changed the module"
            state["checked"].add(pass_.spec_text)
        state["snapshot"] = snapshot

    _drive(module, passes, after_pass)
    assert state["checked"]


# --------------------------------------------------------- memo semantics

#: ``x + 4`` only becomes foldable once mem2reg has promoted ``x``.
_FOLDABLE = """
int f(int a) {
    int x = 3;
    int y = x + 4;
    return a + y;
}
"""

_CALLS_HELPER = """
int helper(int a) { return a + 1; }
int f(int a) { return helper(a) * 2; }
"""


def _run(text: str, source: str):
    manager = build_pipeline_from_text(text)
    manager.run(compile_to_ir(source))
    return manager


def _skipped(manager):
    return [record.skipped for record in manager.history]


def test_unchanged_spec_is_skipped_and_recorded():
    manager = _run("simplifycfg,mem2reg,dce,dce", _FOLDABLE)
    records = manager.history
    assert [r.pass_name for r in records] == \
        ["simplifycfg", "mem2reg", "dce", "dce"]
    assert _skipped(manager) == [False, False, False, True]
    skipped = records[-1]
    assert not skipped.changed and skipped.duration_seconds == 0.0


def test_pass_reruns_after_another_pass_reports_a_change():
    manager = _run("simplifycfg,mem2reg,dce,constprop,dce", _FOLDABLE)
    assert manager.history[3].changed  # constprop folded 3 + 4
    assert _skipped(manager)[4] is False


def test_pass_reruns_after_a_module_pass_reports_a_change():
    manager = _run("simplifycfg,mem2reg,dce,inline,dce", _CALLS_HELPER)
    assert manager.history[3].pass_name == "inline"
    assert manager.history[3].changed
    assert _skipped(manager)[4] is False


def test_specs_with_different_parameters_never_share_an_entry():
    manager = _run("simplifycfg,mem2reg,dce,dce<unsafe-traps>,dce",
                   _FOLDABLE)
    assert not any(record.changed for record in manager.history[2:])
    assert _skipped(manager)[2:] == [False, False, True]


def test_unreported_mutation_forgets_every_record():
    class SilentMutation(Pass):
        name = "silent"

        def run_on_module(self, module, analyses=None):
            module.bump_ir_epoch()
            return PreservedAnalyses.unchanged()

    module = compile_to_ir(_FOLDABLE)
    manager = build_pipeline_from_text("simplifycfg,mem2reg,dce")
    manager.add(SilentMutation())
    manager.extend(build_pipeline_from_text("dce").passes)
    manager.run(module)
    assert _skipped(manager) == [False] * 5


def test_nothing_carries_over_between_runs_or_compiles():
    module = compile_to_ir(_FOLDABLE)
    manager = build_pipeline_from_text("simplifycfg,mem2reg,dce")
    manager.run_until_fixpoint(module)
    first = len(manager.history)
    manager.run_until_fixpoint(module)
    # A fresh call runs every spec once before it can skip anything.
    assert not any(record.skipped for record in manager.history[first:])

    session = CompilerSession()
    source = get_workload("echo").source
    histories = [session.compile(source, level=OptLevel.O2).pass_history
                 for _ in range(2)]
    assert [(r.pass_name, r.changed, r.skipped) for r in histories[0]] == \
        [(r.pass_name, r.changed, r.skipped) for r in histories[1]]
    assert histories[0][0].skipped is False


# -------------------------------------------------- deterministic IR text

#: Seeds whose printed modules used to differ from process to process:
#: mem2reg walked dominance frontiers in memory-address order.
_ORDER_SENSITIVE_SEEDS = [7, 14, 36, 47, 50, 52, 55]

_PRINT_SEEDS = f"""
import hashlib, json, sys
sys.path.insert(0, "src")
from repro.fuzz import generate_program
from repro.ir import print_module
from repro.pipelines import CompilerSession, OptLevel
out = {{}}
for seed in {_ORDER_SENSITIVE_SEEDS}:
    session = CompilerSession()
    for level in OptLevel:
        text = print_module(session.compile(generate_program(seed),
                                            level=level).module)
        out[f"{{seed}}{{level}}"] = hashlib.sha256(text.encode()).hexdigest()
print(json.dumps(out))
"""


def test_printed_modules_are_identical_across_processes():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    children = [subprocess.Popen([sys.executable, "-c", _PRINT_SEEDS],
                                 cwd=root, env=env, stdout=subprocess.PIPE,
                                 text=True)
                for _ in range(3)]
    outputs = []
    for child in children:
        stdout, _ = child.communicate(timeout=300)
        assert child.returncode == 0
        outputs.append(json.loads(stdout))
    assert len(outputs[0]) == len(_ORDER_SENSITIVE_SEEDS) * len(LEVELS)
    assert outputs[0] == outputs[1] == outputs[2]
