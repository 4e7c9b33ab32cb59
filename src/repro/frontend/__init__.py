"""repro.frontend — the MiniC front end (lexer, parser, sema, lowering)."""

from typing import Optional

from . import ast
from .ctype import (
    CArray, CFunction, CInt, CPointer, CStruct, CType, CVoid,
    BOOL, CHAR, UCHAR, SHORT, USHORT, INT, UINT, LONG, ULONG, VOID,
    decay, integer_promote, usual_arithmetic_conversion,
)
from .lexer import Token, TokenKind, tokenize
from .parser import Parser, parse
from .sema import SemanticAnalyzer, analyze
from .lowering import Codegen, lower
from .source import CompileError, SourceLocation

from ..ir import Module


def compile_to_ir(source: str, module_name: str = "module",
                  filename: str = "<source>") -> Module:
    """Compile MiniC ``source`` to an unoptimized IR module (like ``-O0``)."""
    unit = parse(source, filename)
    analyze(unit)
    return lower(unit, module_name)


__all__ = [
    "ast",
    "CArray", "CFunction", "CInt", "CPointer", "CStruct", "CType", "CVoid",
    "BOOL", "CHAR", "UCHAR", "SHORT", "USHORT", "INT", "UINT", "LONG",
    "ULONG", "VOID",
    "decay", "integer_promote", "usual_arithmetic_conversion",
    "Token", "TokenKind", "tokenize",
    "Parser", "parse",
    "SemanticAnalyzer", "analyze",
    "Codegen", "lower",
    "CompileError", "SourceLocation",
    "compile_to_ir",
]
