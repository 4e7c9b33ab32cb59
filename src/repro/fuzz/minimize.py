"""AST-level divergence minimizer (greedy delta reduction).

Given a program and an *interestingness* predicate (for the CLI: "the
oracle still reports an equivalent divergence"), the minimizer repeatedly
tries structure-shrinking edits — drop a function, drop a statement,
replace an ``if`` with one of its arms, unwrap a loop body, replace an
expression with a subexpression or a literal, widen a declaration to
plain ``int`` — keeping each edit whose result still satisfies the
predicate, until a fixed point.  Every candidate is re-rendered from the
AST (:mod:`repro.fuzz.render`), so candidates are always syntactically
valid; semantic validity (a dropped declaration whose uses remain) is
filtered by a cheap compile check before the predicate runs.

The reduction is greedy and deterministic: edits are enumerated in a
fixed structural order, and the first accepted edit restarts the scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List

from ..frontend import ast, parse
from ..frontend.ctype import INT
from ..pipelines.levels import OptLevel
from ..pipelines.session import CompilerSession
from .render import render_program

#: Fields of each statement/expression node that hold child expressions.
_EXPR_FIELDS = {
    ast.ExprStmt: ("expr",),
    ast.Declaration: ("initializer",),
    ast.If: ("condition",),
    ast.While: ("condition",),
    ast.DoWhile: ("condition",),
    ast.For: ("condition", "step"),
    ast.Return: ("value",),
    ast.UnaryOp: ("operand",),
    ast.PostfixOp: ("operand",),
    ast.BinaryOp: ("lhs", "rhs"),
    ast.LogicalOp: ("lhs", "rhs"),
    ast.Assignment: ("value",),   # never touch the target (an lvalue)
    ast.Conditional: ("condition", "then", "otherwise"),
    ast.Index: ("index",),        # never touch the base (an lvalue)
    ast.Cast: ("operand",),
    ast.SizeOf: ("operand",),
}

#: Subexpressions an expression may be replaced by (must stay value-like,
#: so lvalue bases of Index/Member and assignment targets are excluded).
_SHRINK_CHILDREN = {
    ast.UnaryOp: ("operand",),
    ast.BinaryOp: ("lhs", "rhs"),
    ast.LogicalOp: ("lhs", "rhs"),
    ast.Conditional: ("then", "otherwise"),
    ast.Cast: ("operand",),
}


@dataclass
class MinimizationResult:
    original_source: str
    minimized_source: str
    rounds: int
    candidates_tried: int
    candidates_accepted: int

    @property
    def reduced(self) -> bool:
        return self.candidates_accepted > 0


def count_statements(source: str) -> int:
    """Statements in a program (the minimizer-convergence metric)."""
    unit = parse(source)
    count = 0

    def visit_stmt(stmt: ast.Stmt) -> None:
        nonlocal count
        count += 1
        if isinstance(stmt, ast.Block):
            count -= 1  # the braces themselves are not a statement
            for inner in stmt.statements:
                visit_stmt(inner)
        elif isinstance(stmt, ast.If):
            visit_stmt(stmt.then)
            if stmt.otherwise is not None:
                visit_stmt(stmt.otherwise)
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            visit_stmt(stmt.body)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                visit_stmt(stmt.init)
            visit_stmt(stmt.body)

    for function in unit.functions:
        if function.body is not None:
            visit_stmt(function.body)
    return count


def _statement_lists(unit: ast.TranslationUnit
                     ) -> Iterator[List[ast.Stmt]]:
    """Every mutable statement list in the program, outermost first."""
    pending: List[ast.Stmt] = []
    for function in unit.functions:
        if function.body is not None:
            pending.append(function.body)
    while pending:
        stmt = pending.pop(0)
        if isinstance(stmt, ast.Block):
            yield stmt.statements
            pending.extend(stmt.statements)
        elif isinstance(stmt, ast.If):
            pending.append(stmt.then)
            if stmt.otherwise is not None:
                pending.append(stmt.otherwise)
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            pending.append(stmt.body)
        elif isinstance(stmt, ast.For):
            pending.append(stmt.body)


def _nodes(unit: ast.TranslationUnit) -> Iterator[ast.Node]:
    """Every statement and expression node, preorder, fixed order."""
    pending: List[ast.Node] = []
    for function in unit.functions:
        if function.body is not None:
            pending.append(function.body)
    while pending:
        node = pending.pop(0)
        yield node
        if isinstance(node, ast.Block):
            pending.extend(node.statements)
            continue
        for name in _EXPR_FIELDS.get(type(node), ()):
            child = getattr(node, name, None)
            if child is not None:
                pending.append(child)
        if isinstance(node, ast.If):
            pending.append(node.then)
            if node.otherwise is not None:
                pending.append(node.otherwise)
        elif isinstance(node, (ast.While, ast.DoWhile)):
            pending.append(node.body)
        elif isinstance(node, ast.For):
            if node.init is not None:
                pending.append(node.init)
            pending.append(node.body)
        elif isinstance(node, ast.Assignment):
            pending.append(node.target)
        elif isinstance(node, (ast.Index, ast.Member)):
            pending.append(node.base)
        elif isinstance(node, ast.Call):
            pending.extend(node.args)


def _edits(unit: ast.TranslationUnit) -> Iterator[Callable[[], None]]:
    """Enumerate undo-free shrinking edits, coarsest first.

    Each yielded thunk mutates ``unit`` in place; the caller works on a
    deep copy per candidate, so no undo is needed.
    """
    # 1. Drop whole helper functions and struct definitions.
    for index in range(len(unit.functions) - 1, -1, -1):
        if unit.functions[index].name != "main":
            yield lambda i=index: unit.functions.pop(i)
    for index in range(len(unit.structs) - 1, -1, -1):
        yield lambda i=index: unit.structs.pop(i)
    for index in range(len(unit.globals) - 1, -1, -1):
        yield lambda i=index: unit.globals.pop(i)
    # 2. Drop statements (skip a lone trailing return).
    for statements in _statement_lists(unit):
        for index in range(len(statements) - 1, -1, -1):
            if isinstance(statements[index], ast.Return):
                continue
            yield lambda lst=statements, i=index: lst.pop(i)
    # 3. Structural rewrites of compound statements.
    for statements in _statement_lists(unit):
        for index, stmt in enumerate(statements):
            if isinstance(stmt, ast.If):
                yield (lambda lst=statements, i=index, s=stmt:
                       lst.__setitem__(i, s.then))
                if stmt.otherwise is not None:
                    yield (lambda lst=statements, i=index, s=stmt:
                           lst.__setitem__(i, s.otherwise))
                    yield (lambda s=stmt: setattr(s, "otherwise", None))
            elif isinstance(stmt, (ast.While, ast.DoWhile, ast.For)):
                yield (lambda lst=statements, i=index, s=stmt:
                       lst.__setitem__(i, s.body))
    # 4. Shrink expressions: replace with a subexpression, then literals.
    for node in _nodes(unit):
        for name in _EXPR_FIELDS.get(type(node), ()):
            child = getattr(node, name, None)
            if child is None or isinstance(child, ast.IntLiteral):
                continue
            for grand_name in _SHRINK_CHILDREN.get(type(child), ()):
                grand = getattr(child, grand_name, None)
                if grand is not None:
                    yield (lambda n=node, f=name, g=grand:
                           setattr(n, f, g))
            for value in (0, 1):
                yield (lambda n=node, f=name, v=value:
                       setattr(n, f, ast.IntLiteral(value=v)))
    # 5. Simplify declaration types to plain int.
    for node in _nodes(unit):
        if isinstance(node, ast.Declaration) and node.var_type != INT:
            yield lambda n=node: setattr(n, "var_type", INT)


def _compiles(source: str) -> bool:
    try:
        CompilerSession().compile(source, level=OptLevel.O0)
    except Exception:
        return False
    return True


def minimize_source(source: str,
                    is_interesting: Callable[[str], bool],
                    max_rounds: int = 50,
                    compile_check: bool = True) -> MinimizationResult:
    """Greedily shrink ``source`` while ``is_interesting`` holds.

    ``is_interesting`` receives candidate source text and must return
    True when the property being chased (for the CLI: "the oracle still
    reports the same divergence") is still present.  The input program
    itself must satisfy the predicate.
    """
    unit = parse(source)
    current = render_program(unit)
    if not is_interesting(current):
        # Rendering is behavior-preserving; if re-rendering already loses
        # the property, minimize the raw text's parse no further.
        return MinimizationResult(source, source, 0, 1, 0)
    tried = 1
    accepted = 0
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        improved = False
        edit_count = sum(1 for _ in _edits(parse(current)))
        for edit_index in range(edit_count):
            candidate_unit = parse(current)
            for index, edit in enumerate(_edits(candidate_unit)):
                if index == edit_index:
                    edit()
                    break
            else:
                continue
            try:
                candidate = render_program(candidate_unit)
            except TypeError:
                continue
            if candidate == current:
                continue
            if compile_check and not _compiles(candidate):
                continue
            tried += 1
            if is_interesting(candidate):
                current = candidate
                accepted += 1
                improved = True
                break  # restart the scan on the smaller program
        if not improved:
            break
    return MinimizationResult(source, current, rounds, tried, accepted)
