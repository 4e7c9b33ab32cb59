"""Abstract syntax tree for MiniC.

Expression nodes carry a ``ctype`` attribute that the semantic analyzer
fills in; the lowering pass relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .ctype import CFunction, CType
from .source import SourceLocation, UNKNOWN_LOCATION


# --------------------------------------------------------------------------
# Base nodes
# --------------------------------------------------------------------------
@dataclass
class Node:
    location: SourceLocation = field(default=UNKNOWN_LOCATION, kw_only=True)


@dataclass
class Expr(Node):
    """Base class of expressions; ``ctype`` is set by semantic analysis."""
    ctype: Optional[CType] = field(default=None, kw_only=True)
    #: True when the expression denotes a memory location (an lvalue).
    is_lvalue: bool = field(default=False, kw_only=True)


@dataclass
class Stmt(Node):
    pass


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------
@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class CharLiteral(Expr):
    value: int = 0


@dataclass
class StringLiteral(Expr):
    value: bytes = b""


@dataclass
class Identifier(Expr):
    name: str = ""


@dataclass
class UnaryOp(Expr):
    """Prefix unary operators: ``- ! ~ * & ++ --``."""
    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class PostfixOp(Expr):
    """Postfix ``++`` and ``--``."""
    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class BinaryOp(Expr):
    """Binary operators, excluding assignment and short-circuit logicals."""
    op: str = ""
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass
class LogicalOp(Expr):
    """Short-circuit ``&&`` and ``||``."""
    op: str = ""
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass
class Assignment(Expr):
    """``lhs op rhs`` where op is ``=`` or a compound assignment."""
    op: str = "="
    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class Conditional(Expr):
    """The ternary ``cond ? then : otherwise``."""
    condition: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    otherwise: Expr = None  # type: ignore[assignment]


@dataclass
class Call(Expr):
    callee: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    """Array subscript ``base[index]``."""
    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class Member(Expr):
    """Struct member access ``base.field`` or ``base->field``."""
    base: Expr = None  # type: ignore[assignment]
    field_name: str = ""
    is_arrow: bool = False


@dataclass
class Cast(Expr):
    """Explicit cast ``(type) expr``."""
    target_type: CType = None  # type: ignore[assignment]
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class SizeOf(Expr):
    """``sizeof(type)`` or ``sizeof(expr)``."""
    target_type: Optional[CType] = None
    operand: Optional[Expr] = None


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------
@dataclass
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class Declaration(Stmt):
    """A local variable declaration, possibly with an initializer."""
    name: str = ""
    var_type: CType = None  # type: ignore[assignment]
    initializer: Optional[Expr] = None


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    condition: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    condition: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class DoWhile(Stmt):
    body: Stmt = None  # type: ignore[assignment]
    condition: Expr = None  # type: ignore[assignment]


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    condition: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class EmptyStmt(Stmt):
    pass


# --------------------------------------------------------------------------
# Top-level declarations
# --------------------------------------------------------------------------
@dataclass
class Parameter(Node):
    name: str = ""
    param_type: CType = None  # type: ignore[assignment]


@dataclass
class FunctionDef(Node):
    name: str = ""
    return_type: CType = None  # type: ignore[assignment]
    parameters: List[Parameter] = field(default_factory=list)
    body: Optional[Block] = None  # None for declarations (extern)
    is_vararg: bool = False


@dataclass
class GlobalDecl(Node):
    name: str = ""
    var_type: CType = None  # type: ignore[assignment]
    initializer: Optional[Expr] = None
    is_const: bool = False


@dataclass
class StructDef(Node):
    name: str = ""
    field_names: List[str] = field(default_factory=list)
    field_types: List[CType] = field(default_factory=list)


@dataclass
class TranslationUnit(Node):
    """A whole MiniC source file."""
    functions: List[FunctionDef] = field(default_factory=list)
    globals: List[GlobalDecl] = field(default_factory=list)
    structs: List[StructDef] = field(default_factory=list)
    #: Filled in by sema: the signature of every function the unit
    #: declares or defines, and the names each function defined here calls.
    signatures: Dict[str, CFunction] = field(default_factory=dict)
    calls: Dict[str, Set[str]] = field(default_factory=dict)
