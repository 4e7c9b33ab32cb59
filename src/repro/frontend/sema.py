"""Semantic analysis for MiniC.

The analyzer walks the AST, resolves names against lexical scopes, computes
the C type of every expression (stored in ``Expr.ctype``), marks lvalues, and
reports type errors.  The lowering pass relies on these annotations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set

from . import ast
from .ctype import (
    CArray, CFunction, CPointer, CStruct, CType, CHAR, INT, LONG, ULONG, VOID,
    decay, integer_promote, usual_arithmetic_conversion,
)
from .source import CompileError, nesting_limit

if TYPE_CHECKING:
    from ..vlibc.archive import LibraryArchive

#: The largest integer literal a 64-bit type (``unsigned long``) holds.
_MAX_LITERAL = 2 ** 64 - 1


class Scope:
    """A lexical scope mapping names to their declared types."""

    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self.parent = parent
        self.symbols: Dict[str, CType] = {}

    def declare(self, name: str, ctype: CType, node: ast.Node) -> None:
        if name in self.symbols:
            raise CompileError(f"redeclaration of '{name}'", node.location)
        self.symbols[name] = ctype

    def lookup(self, name: str) -> Optional[CType]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class SemanticAnalyzer:
    """Type checks a translation unit and annotates its expressions.

    ``library`` is the archive the program is linked against: its
    functions are in scope, as if declared before the program.  A name
    the program calls without declaring it, and a name the program
    declares or defines, is looked up there, which loads that member.
    """

    def __init__(self, unit: ast.TranslationUnit,
                 library: Optional["LibraryArchive"] = None) -> None:
        self.unit = unit
        self.library = library
        self.globals = Scope()
        #: The signatures the unit declares so far (a library archive
        #: reads them while the unit is one of its members in analysis).
        self.functions: Dict[str, CFunction] = {}
        unit.signatures = self.functions
        self.structs: Dict[str, CStruct] = {}
        self.current_return_type: CType = VOID
        self.loop_depth = 0
        #: Callee names of the function being analysed.
        self.callees: Set[str] = set()

    # ------------------------------------------------------------------ API
    def analyze(self) -> ast.TranslationUnit:
        for struct in self.unit.structs:
            self.structs[struct.name] = CStruct(
                struct.name, tuple(struct.field_names),
                tuple(struct.field_types))
        for function in self.unit.functions:
            signature = CFunction(
                function.return_type,
                tuple(p.param_type for p in function.parameters),
                function.is_vararg)
            existing = self._function(function.name)
            if existing is not None and function.body is not None and \
                    existing != signature:
                raise CompileError(
                    f"conflicting declaration of '{function.name}'",
                    function.location)
            self.functions[function.name] = signature
        for gvar in self.unit.globals:
            self.globals.declare(gvar.name, self._resolve(gvar.var_type), gvar)
            if gvar.initializer is not None:
                with nesting_limit(gvar.location):
                    self._analyze_expr(gvar.initializer, self.globals)
        for function in self.unit.functions:
            if function.body is not None:
                self.callees = self.unit.calls[function.name] = set()
                with nesting_limit(function.location):
                    self._analyze_function(function)
        return self.unit

    # ------------------------------------------------------------- helpers
    def _function(self, name: str) -> Optional[CFunction]:
        """The signature of function ``name``: the unit's own
        declaration so far, else the library's."""
        signature = self.functions.get(name)
        if signature is None and self.library is not None:
            signature = self.library.signature(name)
        return signature

    def _resolve(self, ctype: CType) -> CType:
        """Resolve forward-declared struct types to their full definitions."""
        if isinstance(ctype, CStruct) and not ctype.field_names:
            full = self.structs.get(ctype.name)
            if full is not None:
                return full
        if isinstance(ctype, CPointer):
            return CPointer(self._resolve(ctype.pointee))
        if isinstance(ctype, CArray):
            return CArray(self._resolve(ctype.element), ctype.count)
        return ctype

    def _analyze_function(self, function: ast.FunctionDef) -> None:
        scope = Scope(self.globals)
        for param in function.parameters:
            param.param_type = decay(self._resolve(param.param_type))
            scope.declare(param.name, param.param_type, param)
        self.current_return_type = self._resolve(function.return_type)
        assert function.body is not None
        self._analyze_block(function.body, scope)

    def _analyze_block(self, block: ast.Block, scope: Scope) -> None:
        inner = Scope(scope)
        for stmt in block.statements:
            self._analyze_stmt(stmt, inner)

    # ----------------------------------------------------------- statements
    def _analyze_stmt(self, stmt: ast.Stmt, scope: Scope) -> None:
        if isinstance(stmt, ast.Block):
            self._analyze_block(stmt, scope)
        elif isinstance(stmt, ast.Declaration):
            stmt.var_type = self._resolve(stmt.var_type)
            if stmt.initializer is not None:
                init_type = self._analyze_expr(stmt.initializer, scope)
                self._check_assignable(stmt.var_type, init_type, stmt)
            scope.declare(stmt.name, stmt.var_type, stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._analyze_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.If):
            self._analyze_condition(stmt.condition, scope)
            self._analyze_stmt(stmt.then, scope)
            if stmt.otherwise is not None:
                self._analyze_stmt(stmt.otherwise, scope)
        elif isinstance(stmt, ast.While):
            self._analyze_condition(stmt.condition, scope)
            self.loop_depth += 1
            self._analyze_stmt(stmt.body, scope)
            self.loop_depth -= 1
        elif isinstance(stmt, ast.DoWhile):
            self.loop_depth += 1
            self._analyze_stmt(stmt.body, scope)
            self.loop_depth -= 1
            self._analyze_condition(stmt.condition, scope)
        elif isinstance(stmt, ast.For):
            inner = Scope(scope)
            if stmt.init is not None:
                self._analyze_stmt(stmt.init, inner)
            if stmt.condition is not None:
                self._analyze_condition(stmt.condition, inner)
            if stmt.step is not None:
                self._analyze_expr(stmt.step, inner)
            self.loop_depth += 1
            self._analyze_stmt(stmt.body, inner)
            self.loop_depth -= 1
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value_type = self._analyze_expr(stmt.value, scope)
                if self.current_return_type.is_void:
                    raise CompileError("return with a value in void function",
                                       stmt.location)
                self._check_assignable(self.current_return_type, value_type,
                                       stmt)
            elif not self.current_return_type.is_void:
                raise CompileError("return without a value in non-void function",
                                   stmt.location)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if self.loop_depth == 0:
                keyword = "break" if isinstance(stmt, ast.Break) else "continue"
                raise CompileError(f"'{keyword}' outside of a loop",
                                   stmt.location)
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        else:  # pragma: no cover - defensive
            raise CompileError(f"unknown statement {type(stmt).__name__}",
                               stmt.location)

    def _analyze_condition(self, expr: ast.Expr, scope: Scope) -> None:
        ctype = self._analyze_expr(expr, scope)
        if not decay(ctype).is_scalar:
            raise CompileError(f"condition has non-scalar type {ctype}",
                               expr.location)

    # ---------------------------------------------------------- expressions
    def _analyze_expr(self, expr: ast.Expr, scope: Scope) -> CType:
        ctype = self._compute_type(expr, scope)
        expr.ctype = ctype
        return ctype

    def _compute_type(self, expr: ast.Expr, scope: Scope) -> CType:
        if isinstance(expr, ast.IntLiteral):
            if expr.value > _MAX_LITERAL:
                raise CompileError(
                    "integer literal is too large for any integer type",
                    expr.location)
            return INT if -(2 ** 31) <= expr.value < 2 ** 31 else LONG
        if isinstance(expr, ast.CharLiteral):
            return INT
        if isinstance(expr, ast.StringLiteral):
            expr.is_lvalue = False
            return CPointer(CHAR)
        if isinstance(expr, ast.Identifier):
            ctype = scope.lookup(expr.name)
            if ctype is None:
                raise CompileError(f"use of undeclared identifier '{expr.name}'",
                                   expr.location)
            expr.is_lvalue = not isinstance(ctype, CFunction)
            return ctype
        if isinstance(expr, ast.UnaryOp):
            return self._type_unary(expr, scope)
        if isinstance(expr, ast.PostfixOp):
            operand_type = self._analyze_expr(expr.operand, scope)
            self._require_lvalue(expr.operand)
            if not decay(operand_type).is_scalar:
                raise CompileError(f"cannot apply '{expr.op}' to {operand_type}",
                                   expr.location)
            return operand_type
        if isinstance(expr, ast.BinaryOp):
            return self._type_binary(expr, scope)
        if isinstance(expr, ast.LogicalOp):
            self._analyze_condition(expr.lhs, scope)
            self._analyze_condition(expr.rhs, scope)
            return INT
        if isinstance(expr, ast.Assignment):
            return self._type_assignment(expr, scope)
        if isinstance(expr, ast.Conditional):
            self._analyze_condition(expr.condition, scope)
            then_type = decay(self._analyze_expr(expr.then, scope))
            else_type = decay(self._analyze_expr(expr.otherwise, scope))
            if then_type.is_integer and else_type.is_integer:
                return usual_arithmetic_conversion(then_type, else_type)
            if then_type.is_pointer:
                return then_type
            if else_type.is_pointer:
                return else_type
            if then_type == else_type:
                return then_type
            raise CompileError(
                f"incompatible branch types {then_type} and {else_type}",
                expr.location)
        if isinstance(expr, ast.Call):
            return self._type_call(expr, scope)
        if isinstance(expr, ast.Index):
            base_type = decay(self._analyze_expr(expr.base, scope))
            index_type = self._analyze_expr(expr.index, scope)
            if not isinstance(base_type, CPointer):
                raise CompileError(f"cannot index into {base_type}",
                                   expr.location)
            if not decay(index_type).is_integer:
                raise CompileError("array index must be an integer",
                                   expr.location)
            expr.is_lvalue = True
            return self._resolve(base_type.pointee)
        if isinstance(expr, ast.Member):
            base_type = self._analyze_expr(expr.base, scope)
            if expr.is_arrow:
                base_type = decay(base_type)
                if not isinstance(base_type, CPointer):
                    raise CompileError("'->' on non-pointer", expr.location)
                base_type = base_type.pointee
            base_type = self._resolve(base_type)
            if not isinstance(base_type, CStruct):
                raise CompileError(f"member access on non-struct {base_type}",
                                   expr.location)
            try:
                field_type = base_type.field_type(expr.field_name)
            except KeyError as exc:
                raise CompileError(str(exc), expr.location) from exc
            expr.is_lvalue = True
            return self._resolve(field_type)
        if isinstance(expr, ast.Cast):
            self._analyze_expr(expr.operand, scope)
            expr.target_type = self._resolve(expr.target_type)
            return expr.target_type
        if isinstance(expr, ast.SizeOf):
            if expr.operand is not None:
                self._analyze_expr(expr.operand, scope)
            if expr.target_type is not None:
                expr.target_type = self._resolve(expr.target_type)
            return ULONG
        raise CompileError(f"unknown expression {type(expr).__name__}",
                           expr.location)  # pragma: no cover - defensive

    def _type_unary(self, expr: ast.UnaryOp, scope: Scope) -> CType:
        operand_type = self._analyze_expr(expr.operand, scope)
        if expr.op in ("-", "~"):
            if not decay(operand_type).is_integer:
                raise CompileError(f"cannot apply '{expr.op}' to {operand_type}",
                                   expr.location)
            return integer_promote(operand_type)
        if expr.op == "!":
            if not decay(operand_type).is_scalar:
                raise CompileError("'!' requires a scalar operand",
                                   expr.location)
            return INT
        if expr.op == "*":
            pointer_type = decay(operand_type)
            if not isinstance(pointer_type, CPointer):
                raise CompileError(f"cannot dereference {operand_type}",
                                   expr.location)
            expr.is_lvalue = True
            return self._resolve(pointer_type.pointee)
        if expr.op == "&":
            self._require_lvalue(expr.operand)
            return CPointer(operand_type)
        if expr.op in ("++", "--"):
            self._require_lvalue(expr.operand)
            if not decay(operand_type).is_scalar:
                raise CompileError(f"cannot apply '{expr.op}' to {operand_type}",
                                   expr.location)
            return operand_type
        raise CompileError(f"unknown unary operator '{expr.op}'",
                           expr.location)  # pragma: no cover - defensive

    def _type_binary(self, expr: ast.BinaryOp, scope: Scope) -> CType:
        lhs_type = decay(self._analyze_expr(expr.lhs, scope))
        rhs_type = decay(self._analyze_expr(expr.rhs, scope))
        op = expr.op
        if op == ",":
            return rhs_type
        if op in ("==", "!=", "<", ">", "<=", ">="):
            if lhs_type.is_pointer or rhs_type.is_pointer:
                return INT
            if lhs_type.is_integer and rhs_type.is_integer:
                return INT
            raise CompileError(
                f"cannot compare {lhs_type} and {rhs_type}", expr.location)
        if op in ("<<", ">>"):
            if not (lhs_type.is_integer and rhs_type.is_integer):
                raise CompileError("shift requires integer operands",
                                   expr.location)
            return integer_promote(lhs_type)
        if op in ("+", "-"):
            if lhs_type.is_pointer and rhs_type.is_integer:
                return lhs_type
            if op == "+" and lhs_type.is_integer and rhs_type.is_pointer:
                return rhs_type
            if op == "-" and lhs_type.is_pointer and rhs_type.is_pointer:
                return LONG
        if op in ("+", "-", "*", "/", "%", "&", "|", "^"):
            if lhs_type.is_integer and rhs_type.is_integer:
                return usual_arithmetic_conversion(lhs_type, rhs_type)
            raise CompileError(
                f"invalid operands to '{op}': {lhs_type} and {rhs_type}",
                expr.location)
        raise CompileError(f"unknown binary operator '{op}'",
                           expr.location)  # pragma: no cover - defensive

    def _type_assignment(self, expr: ast.Assignment, scope: Scope) -> CType:
        target_type = self._analyze_expr(expr.target, scope)
        value_type = self._analyze_expr(expr.value, scope)
        self._require_lvalue(expr.target)
        if expr.op == "=":
            self._check_assignable(target_type, value_type, expr)
        else:
            # Compound assignment: the implied binary operation must be valid.
            if not decay(target_type).is_scalar:
                raise CompileError(
                    f"invalid compound assignment to {target_type}",
                    expr.location)
        return target_type

    def _type_call(self, expr: ast.Call, scope: Scope) -> CType:
        signature = self._function(expr.callee)
        if signature is None:
            raise CompileError(f"call to undeclared function '{expr.callee}'",
                               expr.location)
        self.callees.add(expr.callee)
        arg_types = [self._analyze_expr(arg, scope) for arg in expr.args]
        expected = len(signature.param_types)
        if signature.is_vararg:
            if len(arg_types) < expected:
                raise CompileError(
                    f"too few arguments to '{expr.callee}'", expr.location)
        elif len(arg_types) != expected:
            raise CompileError(
                f"'{expr.callee}' expects {expected} arguments, got "
                f"{len(arg_types)}", expr.location)
        for param_type, (arg, arg_type) in zip(signature.param_types,
                                               zip(expr.args, arg_types)):
            self._check_assignable(decay(self._resolve(param_type)),
                                   arg_type, arg)
        return self._resolve(signature.return_type)

    # ------------------------------------------------------------- checks
    def _require_lvalue(self, expr: ast.Expr) -> None:
        if not expr.is_lvalue:
            raise CompileError("expression is not assignable", expr.location)

    def _check_assignable(self, target: CType, value: CType,
                          node: ast.Node) -> None:
        target = decay(target)
        value = decay(value)
        if target.is_integer and value.is_integer:
            return
        if target.is_pointer and value.is_pointer:
            return
        if target.is_pointer and value.is_integer:
            # Allow assigning integer constants (e.g. 0) to pointers.
            return
        if target.is_integer and value.is_pointer:
            return
        if target == value:
            return
        raise CompileError(f"cannot assign {value} to {target}", node.location)


def analyze(unit: ast.TranslationUnit,
            library: Optional["LibraryArchive"] = None
            ) -> ast.TranslationUnit:
    """Run semantic analysis on ``unit`` in place and return it; calls may
    name any function of the ``library`` archive, and resolving one loads
    that member (see :class:`repro.vlibc.archive.LibraryArchive`)."""
    return SemanticAnalyzer(unit, library).analyze()
