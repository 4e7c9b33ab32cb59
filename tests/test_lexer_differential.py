"""The master-pattern lexer against the character-at-a-time reference
lexer it replaced (``reference_lexer.py``), and the front door against
malformed source.

Corpus: both libc variants, every registry program, fuzz seeds 0-119,
and seeded mutants of all of those (token deletion and duplication,
truncation, an extra or missing brace, an unterminated comment, string
or character literal, a 40-digit literal, an inserted non-ASCII
character).  On every input the two lexers give the same token stream
or the same diagnostic, except where the reference accepted a non-ASCII
identifier or digit, or crashed: there :func:`tokenize` reports a
:class:`CompileError` instead.  Every mutant also compiles at -O0 and
-OVERIFY to a module or to a ``CompileError`` inside the source.
"""

import random
import re
import sys

import pytest

from repro.frontend import CompileError, tokenize
from repro.frontend.lexer import TokenKind
from repro.fuzz import generate_program
from repro.pipelines import CompilerSession, OptLevel
from repro.vlibc.sources import libc_source
from repro.workloads import all_workloads

from reference_lexer import KEYWORDS as REFERENCE_KEYWORDS
from reference_lexer import Lexer as ReferenceLexer
from reference_lexer import PUNCTUATORS as REFERENCE_PUNCTS

#: Mutants per corpus source; the operators take turns over the corpus.
MUTANTS_PER_SOURCE = 2

_WORD = re.compile(r"\w+|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'|\S")
#: A letter, a superscript and an Arabic-Indic digit (each accepted by the
#: reference), a character outside a byte, a no-break space and an emoji.
_NON_ASCII = ["\u00e9", "\u00b2", "\u0663", "\u20ac", "\u00a0",
              "\U0001f600"]


def _corpus():
    sources = [("libc-verify", libc_source(True)),
               ("libc-exec", libc_source(False))]
    sources += [(workload.name, workload.source)
                for workload in all_workloads()]
    sources += [(f"fuzz-{seed}", generate_program(seed))
                for seed in range(120)]
    return sources


def _delete(source, rng, words):
    word = rng.choice(words)
    return source[:word.start()] + source[word.end():]


def _duplicate(source, rng, words):
    word = rng.choice(words)
    return source[:word.end()] + " " + word[0] + source[word.end():]


def _truncate(source, rng, words):
    return source[:rng.randrange(len(source))]


def _extra_brace(source, rng, words):
    at = rng.choice(words).start()
    return source[:at] + rng.choice("{}") + " " + source[at:]


def _missing_brace(source, rng, words):
    braces = [word for word in words if word[0] in "{}"] or words
    return _delete(source, rng, braces)


def _unterminated(source, rng, words):
    return source[:rng.choice(words).start()] + rng.choice(
        ["/* no end", '"no end', "'", "'\\", '"\\', "'ab'"])


def _long_literal(source, rng, words):
    numbers = [word for word in words if word[0].isdigit()] or words
    word = rng.choice(numbers)
    return source[:word.start()] + "1" * 40 + source[word.end():]


def _non_ascii(source, rng, words):
    at = rng.randrange(len(source) + 1)
    return source[:at] + rng.choice(_NON_ASCII) + source[at:]


_OPERATORS = [_delete, _duplicate, _truncate, _extra_brace, _missing_brace,
              _unterminated, _long_literal, _non_ascii]


def _mutants():
    mutants = []
    for index, (name, source) in enumerate(_corpus()):
        words = list(_WORD.finditer(source))
        for copy in range(MUTANTS_PER_SOURCE):
            number = index * MUTANTS_PER_SOURCE + copy
            operator = _OPERATORS[number % len(_OPERATORS)]
            rng = random.Random(number)
            mutants.append((f"{name}~{operator.__name__[1:]}-{copy}",
                            operator(source, rng, words)))
    return mutants


CORPUS = _corpus()
MUTANTS = _mutants()


def _outcome(lex, source):
    """A token stream as plain tuples, or the diagnostic as
    ``(type, message, location)``."""
    try:
        return [tuple(token) for token in lex(source)]
    except CompileError as exc:
        return (CompileError, exc.message, exc.location)
    except Exception as exc:  # the reference crashes on some inputs
        return (type(exc), str(exc), None)


def _reference(source):
    return _outcome(lambda text: ReferenceLexer(text, "m.c").tokenize(),
                    source)


def _new(source):
    return _outcome(lambda text: tokenize(text, "m.c"), source)


def _char_at(source, location):
    lines = source.split("\n")
    assert 1 <= location.line <= len(lines), location
    line = lines[location.line - 1]
    assert 1 <= location.column <= len(line) + 1, location
    return line[location.column - 1:location.column]


def _assert_agrees(source):
    reference, new = _reference(source), _new(source)
    if new == reference:
        return "same"
    assert isinstance(new, tuple) and new[0] is CompileError, \
        f"reference {reference[:3]!r}, tokenize {new[:3]!r}"
    if isinstance(reference, tuple) and reference[0] is not CompileError:
        # The reference crashed; the new lexer must diagnose it instead.
        _char_at(source, new[2])
        return "crash-diagnosed"
    # The reference read a non-ASCII letter or digit, or a character
    # outside a byte in a literal; tokenize rejects it where it stands.
    assert ord(_char_at(source, new[2]) or "\0") > 0x7F, new
    return "non-ascii-rejected"


@pytest.mark.parametrize("name, source", CORPUS,
                         ids=[name for name, _ in CORPUS])
def test_corpus_streams_match_the_reference(name, source):
    new = _new(source)
    assert isinstance(new, list)
    assert new == _reference(source)


def test_mutants_match_the_reference():
    seen = {}
    for name, source in MUTANTS:
        verdict = _assert_agrees(source)
        seen[verdict] = seen.get(verdict, 0) + 1
    # The family reaches every class of outcome it is meant to cover.
    assert seen["same"] > len(MUTANTS) // 2
    assert seen["non-ascii-rejected"] > 0
    assert seen["crash-diagnosed"] > 0


def test_mutants_reach_every_diagnostic():
    messages = set()
    for _, source in MUTANTS:
        outcome = _new(source)
        if isinstance(outcome, tuple):
            messages.add(re.sub(r"'.*", "", outcome[1]).strip())
    for expected in ("unterminated block comment",
                     "unterminated string literal",
                     "unterminated character literal",
                     "unexpected character"):
        assert expected in messages, sorted(messages)


#: Every keyword and punctuator, spaced and run together, and every form
#: of literal: the corpus programs do not use all of them.
FORMS = [
    " ".join(sorted(REFERENCE_KEYWORDS)) + "\n" + " ".join(REFERENCE_PUNCTS),
    "".join(REFERENCE_PUNCTS) + "a<<=b>>=c...d->e&&f||g",
    "0 007 42u 0x1F 0XabCdEfuL 123uLL 9l 0x0",
    r"""'a' '\n' '\t' '\r' '\0' '\\' '\'' '\"' '\a' '\b' '\f' '\v' '\x41'
        '\x141' ''' '"' '
' "" "a\x4142\n\0\"'" "\xff\x100\x7" "two
lines" """ + "'\t' \"\t\" '\u00e9' \"\u00ff\u00e9\"",
    "_x9 x_ _ __ a1b2 if0 int_ while_",
    "int\r\n\tx = 1; // crlf\r\n#if 0\r\n/*\r\n*/ y\r\n",
]


@pytest.mark.parametrize("source", FORMS)
def test_every_token_form_matches_the_reference(source):
    new = _new(source)
    assert isinstance(new, list)
    assert new == _reference(source)


#: One input per diagnostic and per place it can point at; tokenize must
#: give the reference's message and location on each.
DIAGNOSED = [
    "x = /* open\n\n", "/*/", "int $x;", "a\n\t@", "\\", "#x\n\f",
    "'", "''", "'ab'", "'\n", "'\\x41", "'\\q'", "'\\xg'", "'\\\n'",
    '"', '"abc\n', '"\\x"', '"ok\\xZ"', '"\\y"', '"a\\\nb"', '"\\x4',
    'x = "a\nb" @',
]


@pytest.mark.parametrize("source", DIAGNOSED)
def test_diagnostics_match_the_reference(source):
    reference = _reference(source)
    assert reference[0] is CompileError
    assert _new(source) == reference


#: Inputs on which the reference crashed, or accepted what tokenize now
#: rejects: (source, the reference's exception or the kind and text of
#: its token, tokenize's message, the column it reports).
CHANGED = [
    ("return 0x;", ValueError, "hexadecimal literal '0x' has no digits", 8),
    ("return 0Xu;", ValueError, "hexadecimal literal '0Xu' has no digits",
     8),
    ("return \u00b2;", ValueError, "unexpected character '\u00b2'", 8),
    ("return 1\u0663;", (TokenKind.INT_LITERAL, "1\u0663"),
     "unexpected character '\u0663'", 9),
    ("int \u00e9;", (TokenKind.IDENT, "\u00e9"),
     "unexpected character '\u00e9'", 5),
    ('s = "a\u20ac";', ValueError,
     "character '\u20ac' in a string literal is not a byte", 7),
    ("c = '\u20ac';", (TokenKind.CHAR_LITERAL, "'\u20ac'"),
     "character '\u20ac' in a character literal is not a byte", 6),
    ("c = '\\", IndexError, "unterminated character literal", 5),
    ('s = "\\', IndexError, "unterminated string literal", 5),
]


@pytest.mark.parametrize("source, before, message, column", CHANGED,
                         ids=[repr(case[0][:12]) for case in CHANGED])
def test_changed_inputs(source, before, message, column):
    reference = _reference(source)
    if isinstance(before, type):
        assert reference[0] is before
    else:
        assert before in [token[:2] for token in reference]
    assert _new(source) == (CompileError, message, (1, column, "m.c"))


def test_decimal_literal_past_the_interpreter_digit_limit():
    """``int()`` refuses a decimal string longer than the interpreter's
    digit limit; tokenize reports the literal instead."""
    source = "return " + "9" * 641 + ";"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert _reference(source)[0] is ValueError
        assert _new(source) == (CompileError,
                                "integer literal has too many digits",
                                (1, 8, "m.c"))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("level", [OptLevel.O0, OptLevel.OVERIFY],
                         ids=str)
def test_mutants_compile_or_report_inside_the_source(level):
    session = CompilerSession()
    compiled = 0
    for name, source in MUTANTS:
        try:
            session.compile(source, level=level)
            compiled += 1
        except CompileError as exc:
            assert 1 <= exc.location.line <= source.count("\n") + 1, \
                (name, str(exc))
    assert 0 < compiled < len(MUTANTS)
