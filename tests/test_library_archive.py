"""Tests for the C library as an archive (``repro/vlibc/archive.py``).

Each libc variant splits into one member per function, and a member is
parsed and analysed only when symbol resolution first names it.  Covered
here: the split against the library texts, the work a compile does (the
members it loads), the order members are linked in, and that a member is
published to other threads only once its analysis has finished.  That
the linked modules match the whole-library textual link is
``tests/test_pipeline_identity.py``'s layer 6.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.pipelines.session as session_module
from repro.frontend import analyze, lower, parse
from repro.ir import print_module
from repro.pipelines import CompilerSession, OptLevel
from repro.pipelines.session import library_archive
from repro.vlibc import (
    CHECK_FAIL_DECLARATION, EXECUTION_LIBC, LIBC_FUNCTIONS, VERIFICATION_LIBC,
    LibraryArchive, split_members,
)
from repro.workloads import get_workload

VARIANTS = pytest.mark.parametrize("text", [EXECUTION_LIBC, VERIFICATION_LIBC],
                                   ids=["execution", "verification"])

#: Calls every library function, directly or through another one.
CALLS_EVERY_FUNCTION = """
int main(unsigned char *input, int len) {
    unsigned char buf[4];
    int c = input[0];
    int n = isalnum(c) + ispunct(c) + isspace(c) + toupper(c) + tolower(c);
    memset(buf, 0, 4);
    memcpy(buf, input, 1);
    strcpy(buf, "a");
    n = n + strlen(buf) + strcmp(buf, input) + strncmp(buf, input, 1)
        + strspn(buf, input) + strcspn(buf, input) + memcmp(buf, input, 1)
        + atoi(buf) + abs(n);
    if (strchr(buf, c)) {
        n = n + 1;
    }
    return n;
}
"""


@pytest.fixture
def fresh_archives(monkeypatch):
    """The session's per-process archives, emptied for one test."""
    monkeypatch.setattr(session_module, "_LIBRARIES", {})


# ------------------------------------------------------------------ split

@VARIANTS
def test_members_join_back_to_the_library_text(text):
    members = split_members(text)
    assert "".join(member.text for member in members) == text
    assert [member.name for member in members] == \
        ["__overify_check_fail"] + LIBC_FUNCTIONS
    assert members[0].text == CHECK_FAIL_DECLARATION.rstrip("\n")


@VARIANTS
def test_each_member_parses_to_the_function_its_name_says(text):
    for member in split_members(text):
        unit = parse(member.text)
        assert (unit.globals, unit.structs) == ([], [])
        assert [f.name for f in unit.functions] == [member.name]
        assert (unit.functions[0].body is None) == member.is_declaration


def test_split_steps_over_comments_and_literals():
    text = ("int f(void) { return '}'; } /* } int x; { */\n"
            "// ;\n"
            "int g(void) { return \"{;\"[0]; }\n"
            "extern int h(int a);\n")
    members = split_members(text)
    assert [(m.name, m.is_declaration) for m in members] == \
        [("f", False), ("g", False), ("h", True)]
    assert "".join(m.text for m in members) == text


@pytest.mark.parametrize("text, message", [
    ("int counter;\nint f(void) { return 0; }\n", "functions only"),
    ("struct s { int a; };\n", "functions only"),
    ("int f(void);\nint f(void) { return 0; }\n", "'f' twice"),
    ("int f(void) { return 0; }}\n", "unbalanced"),
    ("int f(void) { return 0;\n", "ends inside an item"),
    ("int f(void) { return 0; }\nint g(void)\n", "ends inside an item"),
])
def test_split_refuses_what_is_not_a_function_library(text, message):
    with pytest.raises(ValueError, match=message):
        split_members(text)


# ---------------------------------------------------------- work counts

@pytest.mark.parametrize("program, members", [
    ("true", []),
    ("tr", []),
    ("wc", ["isspace"]),
    ("seq", ["isspace", "isdigit", "atoi"]),
])
def test_a_compile_loads_only_the_members_the_program_links(
        fresh_archives, program, members):
    session = CompilerSession()
    for level in (OptLevel.O0, OptLevel.OVERIFY):
        session.compile(get_workload(program).source, level=level)
        archive = library_archive(level is OptLevel.OVERIFY)
        assert archive.loaded() == ["__overify_check_fail"] + members, level


def test_a_member_loads_the_members_it_calls():
    archive = LibraryArchive(EXECUTION_LIBC, parse, analyze)
    assert archive.loaded() == []
    assert archive.signature("not_in_the_library") is None
    assert archive.loaded() == []
    archive.signature("isalnum")
    assert archive.loaded() == ["isdigit", "isupper", "islower", "isalpha",
                                "isalnum"]


def test_members_link_in_library_order_not_load_order(fresh_archives):
    # Resolution loads abs first, then islower (inside toupper's analysis)
    # and toupper; the module lists them in library order.
    source = ("int main(unsigned char *input, int len) {\n"
              "  return abs(toupper(input[0]));\n"
              "}\n")
    module = CompilerSession().compile(source, level=OptLevel.O0).module
    assert list(module.functions) == \
        ["__overify_check_fail", "islower", "toupper", "abs", "main"]
    assert library_archive(False).loaded() == \
        ["__overify_check_fail", "islower", "toupper", "abs"]


def test_a_program_calling_every_function_links_the_whole_library(
        fresh_archives):
    module = CompilerSession().compile(CALLS_EVERY_FUNCTION,
                                       level=OptLevel.O0).module
    assert list(module.functions) == \
        ["__overify_check_fail"] + LIBC_FUNCTIONS + ["main"]


def test_members_calling_each_other_load_without_recursing_forever():
    library = ("int even(int n) { if (n == 0) { return 1; } "
               "return odd(n - 1); }\n"
               "int odd(int n) { if (n == 0) { return 0; } "
               "return even(n - 1); }\n")
    archive = LibraryArchive(library, parse, analyze)
    unit = analyze(parse("int main(void) { return odd(7); }"),
                   library=archive)
    assert archive.loaded() == ["even", "odd"]
    module = lower(unit, "program", library=archive)
    assert list(module.functions) == ["even", "odd", "main"]


# -------------------------------------------------------------- threads

def test_a_member_is_published_only_after_its_analysis():
    """A thread that asks for a member another thread is still analysing
    waits for that analysis, and gets the analysed unit."""
    entered, release = threading.Event(), threading.Event()

    def gated_analyze(unit, library):
        if unit.functions[0].name == "isalpha":
            entered.set()
            assert release.wait(timeout=60)
        return analyze(unit, library=library)

    archive = LibraryArchive(EXECUTION_LIBC, parse, gated_analyze)
    got = []
    loader = threading.Thread(target=archive.load, args=("isalpha",))
    reader = threading.Thread(
        target=lambda: got.append(archive.load("isalpha")))
    loader.start()
    try:
        assert entered.wait(timeout=60)
        assert "isalpha" not in archive.loaded()
        reader.start()
        reader.join(timeout=0.2)
        assert reader.is_alive(), "a reader got a member still in analysis"
    finally:
        release.set()
    loader.join(timeout=60)
    reader.join(timeout=60)
    assert not loader.is_alive() and not reader.is_alive()
    assert got[0].calls == {"isalpha": {"islower", "isupper"}}
    assert archive.loaded() == ["isupper", "islower", "isalpha"]


def test_concurrent_first_compiles_print_what_one_thread_prints(
        fresh_archives):
    programs = [CALLS_EVERY_FUNCTION] + [get_workload(name).source for name
                                         in ("seq", "factor", "wc", "od",
                                             "expr")]
    levels = (OptLevel.O0, OptLevel.OVERIFY)

    def compile_all(order):
        session = CompilerSession()
        return {(index, level): print_module(
                    session.compile(programs[index], level=level).module)
                for index in order for level in levels}

    expected = compile_all(range(len(programs)))
    session_module._LIBRARIES.clear()
    threads_n = 4
    barrier = threading.Barrier(threads_n)
    results = [None] * threads_n

    def worker(slot):
        barrier.wait(timeout=60)
        # Each thread starts at another program, so first loads collide.
        order = [(slot + k) % len(programs) for k in range(len(programs))]
        results[slot] = compile_all(order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for result in results:
        assert result == expected
