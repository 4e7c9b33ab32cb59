"""The MiniC lexer as it was before the master-pattern rewrite: one
character at a time, its code kept unchanged as the oracle that
``test_lexer_differential.py`` holds :func:`repro.frontend.tokenize` to.

It builds the library's own :class:`Token` and :class:`SourceLocation`,
so the two lexers' streams compare field for field.
"""

from __future__ import annotations

from typing import List

from repro.frontend.lexer import Token, TokenKind
from repro.frontend.source import CompileError, SourceLocation


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


_ESCAPES = {
    "n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34,
    "a": 7, "b": 8, "f": 12, "v": 11,
}


class Lexer:
    """Converts MiniC source text into a token stream."""

    def __init__(self, source: str, filename: str = "<source>") -> None:
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    # ------------------------------------------------------------------ API
    def tokenize(self) -> List[Token]:
        tokens: List[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # ------------------------------------------------------------- internal
    def _location(self) -> SourceLocation:
        return SourceLocation(self.line, self.column, self.filename)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self) -> str:
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance()
                self._advance()
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance()
                        self._advance()
                        break
                    self._advance()
                else:
                    raise CompileError("unterminated block comment",
                                       self._location())
            elif ch == "#":
                # Preprocessor directives are ignored (the workloads do not
                # rely on them; the C library is linked as a unit).
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        location = self._location()
        if self.pos >= len(self.source):
            return Token(TokenKind.EOF, "", location)
        ch = self._peek()
        if ch.isalpha() or ch == "_":
            return self._lex_identifier(location)
        if ch.isdigit():
            return self._lex_number(location)
        if ch == "'":
            return self._lex_char(location)
        if ch == '"':
            return self._lex_string(location)
        return self._lex_punct(location)

    def _lex_identifier(self, location: SourceLocation) -> Token:
        start = self.pos
        while self.pos < len(self.source) and \
                (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        text = self.source[start:self.pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, location)

    def _lex_number(self, location: SourceLocation) -> Token:
        start = self.pos
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance()
            self._advance()
            while self.pos < len(self.source) and \
                    self._peek() in "0123456789abcdefABCDEF":
                self._advance()
            text = self.source[start:self.pos]
            value = int(text, 16)
        else:
            while self.pos < len(self.source) and self._peek().isdigit():
                self._advance()
            text = self.source[start:self.pos]
            value = int(text, 10)
        # Integer suffixes are accepted and ignored (type comes from context).
        while self.pos < len(self.source) and self._peek() in "uUlL":
            self._advance()
            text = self.source[start:self.pos]
        return Token(TokenKind.INT_LITERAL, text, location, value=value)

    def _read_escaped_char(self) -> int:
        ch = self._advance()
        if ch != "\\":
            return ord(ch)
        esc = self._advance()
        if esc == "x":
            digits = ""
            while self.pos < len(self.source) and \
                    self._peek() in "0123456789abcdefABCDEF":
                digits += self._advance()
            if not digits:
                raise CompileError("invalid hex escape", self._location())
            return int(digits, 16) & 0xFF
        if esc in _ESCAPES:
            return _ESCAPES[esc]
        raise CompileError(f"unknown escape sequence '\\{esc}'", self._location())

    def _lex_char(self, location: SourceLocation) -> Token:
        self._advance()  # opening quote
        if self.pos >= len(self.source):
            raise CompileError("unterminated character literal", location)
        value = self._read_escaped_char()
        if self.pos >= len(self.source) or self._peek() != "'":
            raise CompileError("unterminated character literal", location)
        self._advance()  # closing quote
        return Token(TokenKind.CHAR_LITERAL, f"'{chr(value)}'", location,
                     value=value)

    def _lex_string(self, location: SourceLocation) -> Token:
        self._advance()  # opening quote
        data = bytearray()
        while True:
            if self.pos >= len(self.source):
                raise CompileError("unterminated string literal", location)
            if self._peek() == '"':
                self._advance()
                break
            data.append(self._read_escaped_char())
        return Token(TokenKind.STRING_LITERAL, "", location, string=bytes(data))

    def _lex_punct(self, location: SourceLocation) -> Token:
        for punct in PUNCTUATORS:
            if self.source.startswith(punct, self.pos):
                for _ in punct:
                    self._advance()
                return Token(TokenKind.PUNCT, punct, location)
        raise CompileError(f"unexpected character {self._peek()!r}", location)
