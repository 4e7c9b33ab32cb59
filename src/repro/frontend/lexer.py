"""Lexer for MiniC, the C-like input language of the reproduction.

MiniC covers the constructs that matter for the paper's experiments: integer
types of several widths and signedness, pointers, arrays, structs, the usual
expression operators, control flow (if/while/for/do/break/continue/return),
string and character literals, and function definitions.

The lexer is one compiled master pattern: each match is the trivia
(whitespace, comments, and ``#`` lines: preprocessor directives are
skipped, since the C library is linked as a unit) before a token plus the
token itself, and the alternative that matched names its kind.  Lines
and columns come from counting newlines between token starts.
Identifiers and integer literals are ASCII, and string and character
literals hold bytes: a character above U+00FF in one is an error at that
character.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple

from .source import CompileError, SourceLocation


class TokenKind(enum.Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    INT_LITERAL = "integer"
    CHAR_LITERAL = "character"
    STRING_LITERAL = "string"
    PUNCT = "punctuation"
    EOF = "eof"


KEYWORDS = {
    "void", "char", "short", "int", "long", "unsigned", "signed", "_Bool",
    "if", "else", "while", "for", "do", "return", "break", "continue",
    "struct", "sizeof", "extern", "static", "const",
}

# Longest first so that the scanner is greedy.
PUNCTUATORS = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--", "+=", "-=",
    "*=", "/=", "%=", "&=", "|=", "^=", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?", ":",
    ";", ",", "(", ")", "{", "}", "[", "]", ".",
]


class Token(NamedTuple):
    kind: TokenKind
    text: str
    location: SourceLocation
    value: int = 0  # numeric value for INT_LITERAL / CHAR_LITERAL
    string: bytes = b""  # decoded bytes for STRING_LITERAL


_ESCAPES = {
    "n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34,
    "a": 7, "b": 8, "f": 12, "v": 11,
}

# The token part of the master pattern always matches (``bad`` takes any
# character, ``eof`` the end), so the engine never backtracks into the
# trivia before it.  The literal patterns are unambiguous (a \x escape
# takes every hex digit that follows, as in C), so a malformed literal
# fails in linear time and falls to ``bad``.
_ESCAPE = r"\\(?:x[0-9a-fA-F]+(?![0-9a-fA-F])|[ntr0\\'\"abfv])"
# Byte-sized characters but the backslash (and, for strings, the quote),
# as ranges: a negated class reaching U+10FFFF costs milliseconds to
# compile, and every process compiles this pattern on import.
_CHAR_PLAIN = r"[\x00-\[\]-\xff]"
_STRING_PLAIN = r"[\x00-!#-\[\]-\xff]"
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|\#[^\n]*|/\*(?s:.*?)\*/)*"
    r"(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<hex>0[xX][0-9a-fA-F]*[uUlL]*)"
    r"|(?P<dec>[0-9]+[uUlL]*)"
    r"|(?P<comment>/\*)"
    r"|(?P<punct>" + "|".join(map(re.escape, PUNCTUATORS)) + ")"
    rf"|(?P<char>'(?:{_CHAR_PLAIN}|{_ESCAPE})')"
    rf"|(?P<string>\"{_STRING_PLAIN}*(?:{_ESCAPE}{_STRING_PLAIN}*)*\")"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>(?s:.)))")
_GROUP = _TOKEN_RE.groupindex
_IDENT, _DEC, _HEX, _COMMENT, _PUNCT, _CHAR, _STRING, _EOF = (
    _GROUP[name] for name in ("ident", "dec", "hex", "comment", "punct",
                              "char", "string", "eof"))
_ESCAPE_RE = re.compile(_ESCAPE)
_HEX_DIGITS = "0123456789abcdefABCDEF"


def _unescape(match: "re.Match[str]") -> str:
    esc = match[0]
    if esc[1] == "x":
        return chr(int(esc[2:], 16) & 0xFF)
    return chr(_ESCAPES[esc[1]])


def _locate(source: str, pos: int, filename: str) -> SourceLocation:
    line_start = source.rfind("\n", 0, pos) + 1
    return SourceLocation(source.count("\n", 0, pos) + 1, pos - line_start + 1,
                          filename)


def _literal_error(source: str, start: int, filename: str) -> CompileError:
    """The diagnostic for the malformed literal at ``start``: the first
    fault a left-to-right reading of it meets."""
    quote = source[start]
    noun = "character" if quote == "'" else "string"
    unterminated = CompileError(f"unterminated {noun} literal",
                                _locate(source, start, filename))
    pos, end = start + 1, len(source)
    while pos < end and not (quote == '"' and source[pos] == '"'):
        ch = source[pos]
        pos += 1
        if ch != "\\":
            if ord(ch) > 0xFF:
                return CompileError(
                    f"character {ch!r} in a {noun} literal is not a byte",
                    _locate(source, pos - 1, filename))
        elif pos == end:
            break
        elif source[pos] == "x":
            pos += 1
            if pos == end or source[pos] not in _HEX_DIGITS:
                return CompileError("invalid hex escape",
                                    _locate(source, pos, filename))
            while pos < end and source[pos] in _HEX_DIGITS:
                pos += 1
        elif source[pos] in _ESCAPES:
            pos += 1
        else:
            return CompileError(f"unknown escape sequence '\\{source[pos]}'",
                                _locate(source, pos + 1, filename))
        if quote == "'":
            break
    return unterminated


def tokenize(source: str, filename: str = "<source>") -> List[Token]:
    """Tokenize ``source`` and return the token list (ending with EOF)."""
    # This loop runs once per token: it builds tokens and locations with
    # tuple.__new__, not through the named tuples' Python-level __new__.
    new = tuple.__new__
    count = source.count
    tokens: List[Token] = []
    append = tokens.append
    line, line_start, scanned = 1, 0, 0
    for match in _TOKEN_RE.finditer(source):
        group = match.lastindex
        start, end = match.span(group)
        newlines = count("\n", scanned, start)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", scanned, start) + 1
        scanned = start
        location = new(SourceLocation,
                       (line, start - line_start + 1, filename))
        text = source[start:end]
        if group == _PUNCT:
            append(new(Token, (TokenKind.PUNCT, text, location, 0, b"")))
        elif group == _IDENT:
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            append(new(Token, (kind, text, location, 0, b"")))
        elif group == _DEC or group == _HEX:
            # Suffixes are ignored: the type comes from context.
            digits = text.rstrip("uUlL")
            if digits in ("0x", "0X"):
                raise CompileError(f"hexadecimal literal '{text}' has no "
                                   "digits", location)
            try:
                value = int(digits, 10 if group == _DEC else 16)
            except ValueError:
                raise CompileError("integer literal has too many digits",
                                   location) from None
            append(new(Token, (TokenKind.INT_LITERAL, text, location, value,
                               b"")))
        elif group == _STRING:
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE_RE.sub(_unescape, body)
            append(new(Token, (TokenKind.STRING_LITERAL, "", location, 0,
                               body.encode("latin-1"))))
        elif group == _CHAR:
            char = _ESCAPE_RE.sub(_unescape, text[1:-1])
            append(new(Token, (TokenKind.CHAR_LITERAL, f"'{char}'", location,
                               ord(char), b"")))
        elif group == _EOF:
            append(new(Token, (TokenKind.EOF, "", location, 0, b"")))
            return tokens
        elif group == _COMMENT:
            raise CompileError("unterminated block comment",
                               _locate(source, len(source), filename))
        elif text in "'\"":
            raise _literal_error(source, start, filename)
        else:
            raise CompileError(f"unexpected character {text!r}", location)
    raise AssertionError("the master pattern matches at the end of input")
