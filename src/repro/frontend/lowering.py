"""Lowering from the MiniC AST to the repro IR.

The lowering is deliberately naive — every local variable lives in an
``alloca`` and every access goes through memory — exactly like an
unoptimized clang ``-O0`` build.  All cleverness (mem2reg, folding, control
flow simplification) is the job of the optimization passes, which is what the
paper studies.

GEP convention: ``getelementptr`` takes a single index operand holding a
*byte* offset; the result points ``offset`` bytes past the base pointer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from . import ast
from .ctype import (
    CArray, CFunction, CInt, CPointer, CStruct, CType, CVoid, CHAR, INT, LONG,
    ULONG, decay, integer_promote, usual_arithmetic_conversion,
)
from .source import CompileError, nesting_limit
from ..ir import (
    BasicBlock, ConstantArray, ConstantInt, Function, ICmpPredicate, IRBuilder,
    IntType, Module, Opcode, PointerType, Value, I1, I8, I32, I64, int_type,
)

if TYPE_CHECKING:
    from ..vlibc.archive import LibraryArchive


class LoweringError(CompileError):
    """Raised when the AST cannot be lowered (should be prevented by sema)."""


class _FunctionLowering:
    """Lowers one function body."""

    def __init__(self, codegen: "Codegen", function: Function,
                 definition: ast.FunctionDef) -> None:
        self.codegen = codegen
        self.module = codegen.module
        self.function = function
        self.definition = definition
        self.builder = IRBuilder()
        #: name -> (address value, ctype)
        self.locals: Dict[str, Tuple[Value, CType]] = {}
        self.break_targets: List[BasicBlock] = []
        self.continue_targets: List[BasicBlock] = []

    # ------------------------------------------------------------------ API
    def lower(self) -> None:
        entry = BasicBlock("entry")
        self.function.append_block(entry)
        self.builder.set_insert_point(entry)
        for param, arg in zip(self.definition.parameters,
                              self.function.arguments):
            slot = self.builder.alloca(arg.type, name=f"{param.name}.addr")
            slot.metadata["source.type"] = str(param.param_type)
            self.builder.store(arg, slot)
            self.locals[param.name] = (slot, param.param_type)
        assert self.definition.body is not None
        self.lower_block(self.definition.body)
        self._terminate_open_block()

    def _terminate_open_block(self) -> None:
        block = self.builder.block
        assert block is not None
        if block.terminator is not None:
            return
        return_type = self.function.return_type
        if return_type.is_void:
            self.builder.ret()
        else:
            # Falling off the end of a non-void function returns 0, which
            # matches what the workloads rely on for main().
            assert isinstance(return_type, IntType)
            self.builder.ret(ConstantInt(return_type, 0))

    # ------------------------------------------------------------ statements
    def lower_block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        current = self.builder.block
        if current is not None and current.terminator is not None:
            # Unreachable code after return/break/continue: emit into a fresh
            # dead block so lowering stays simple; DCE removes it later.
            dead = BasicBlock(self.function.next_name("dead"))
            self.function.append_block(dead)
            self.builder.set_insert_point(dead)

        if isinstance(stmt, ast.Block):
            self.lower_block(stmt)
        elif isinstance(stmt, ast.Declaration):
            self._lower_declaration(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.Break):
            self.builder.br(self.break_targets[-1])
        elif isinstance(stmt, ast.Continue):
            self.builder.br(self.continue_targets[-1])
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        else:  # pragma: no cover - defensive
            raise LoweringError(f"cannot lower {type(stmt).__name__}",
                                stmt.location)

    def _lower_declaration(self, stmt: ast.Declaration) -> None:
        ir_type = stmt.var_type.to_ir()
        slot = self.builder.alloca(ir_type, name=f"{stmt.name}.addr")
        slot.metadata["source.type"] = str(stmt.var_type)
        self.locals[stmt.name] = (slot, stmt.var_type)
        if stmt.initializer is not None:
            value, value_type = self.lower_expr(stmt.initializer)
            value = self.convert(value, value_type, stmt.var_type)
            self.builder.store(value, slot)

    def _lower_if(self, stmt: ast.If) -> None:
        condition = self.lower_condition(stmt.condition)
        then_block = self._new_block("if.then")
        merge_block = self._new_block("if.end")
        else_block = merge_block
        if stmt.otherwise is not None:
            else_block = self._new_block("if.else")
        self.builder.cond_br(condition, then_block, else_block)

        self.builder.set_insert_point(then_block)
        self.lower_stmt(stmt.then)
        self._branch_if_open(merge_block)

        if stmt.otherwise is not None:
            self.builder.set_insert_point(else_block)
            self.lower_stmt(stmt.otherwise)
            self._branch_if_open(merge_block)

        self.builder.set_insert_point(merge_block)

    def _lower_while(self, stmt: ast.While) -> None:
        cond_block = self._new_block("while.cond")
        body_block = self._new_block("while.body")
        end_block = self._new_block("while.end")
        self.builder.br(cond_block)

        self.builder.set_insert_point(cond_block)
        condition = self.lower_condition(stmt.condition)
        self.builder.cond_br(condition, body_block, end_block)

        self.builder.set_insert_point(body_block)
        self.break_targets.append(end_block)
        self.continue_targets.append(cond_block)
        self.lower_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        self._branch_if_open(cond_block)

        self.builder.set_insert_point(end_block)

    def _lower_do_while(self, stmt: ast.DoWhile) -> None:
        body_block = self._new_block("do.body")
        cond_block = self._new_block("do.cond")
        end_block = self._new_block("do.end")
        self.builder.br(body_block)

        self.builder.set_insert_point(body_block)
        self.break_targets.append(end_block)
        self.continue_targets.append(cond_block)
        self.lower_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        self._branch_if_open(cond_block)

        self.builder.set_insert_point(cond_block)
        condition = self.lower_condition(stmt.condition)
        self.builder.cond_br(condition, body_block, end_block)

        self.builder.set_insert_point(end_block)

    def _lower_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        cond_block = self._new_block("for.cond")
        body_block = self._new_block("for.body")
        step_block = self._new_block("for.step")
        end_block = self._new_block("for.end")
        self.builder.br(cond_block)

        self.builder.set_insert_point(cond_block)
        if stmt.condition is not None:
            condition = self.lower_condition(stmt.condition)
            self.builder.cond_br(condition, body_block, end_block)
        else:
            self.builder.br(body_block)

        self.builder.set_insert_point(body_block)
        self.break_targets.append(end_block)
        self.continue_targets.append(step_block)
        self.lower_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        self._branch_if_open(step_block)

        self.builder.set_insert_point(step_block)
        if stmt.step is not None:
            self.lower_expr(stmt.step)
        self.builder.br(cond_block)

        self.builder.set_insert_point(end_block)

    def _lower_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            self.builder.ret()
            return
        value, value_type = self.lower_expr(stmt.value)
        return_ctype = self.codegen.function_ctypes[self.definition.name].return_type
        value = self.convert(value, value_type, return_ctype)
        self.builder.ret(value)

    def _new_block(self, name: str) -> BasicBlock:
        block = BasicBlock(self.function.next_name(name))
        self.function.append_block(block)
        return block

    def _branch_if_open(self, target: BasicBlock) -> None:
        block = self.builder.block
        assert block is not None
        if block.terminator is None:
            self.builder.br(target)

    # ----------------------------------------------------------- expressions
    def lower_condition(self, expr: ast.Expr) -> Value:
        """Lower ``expr`` to an ``i1`` truth value."""
        value, ctype = self.lower_expr(expr)
        return self._to_bool(value, ctype)

    def _to_bool(self, value: Value, ctype: CType) -> Value:
        if value.type == I1:
            return value
        if isinstance(value.type, PointerType):
            as_int = self.builder.ptrtoint(value, I64)
            return self.builder.icmp_ne(as_int, ConstantInt(I64, 0))
        assert isinstance(value.type, IntType)
        return self.builder.icmp_ne(value, ConstantInt(value.type, 0))

    def lower_expr(self, expr: ast.Expr) -> Tuple[Value, CType]:
        """Lower an expression to (value, source type)."""
        assert expr.ctype is not None, "expression was not type checked"
        if isinstance(expr, ast.IntLiteral):
            ctype = expr.ctype
            assert isinstance(ctype, CInt)
            return ConstantInt(int_type(ctype.width), expr.value), ctype
        if isinstance(expr, ast.CharLiteral):
            return ConstantInt(I32, expr.value), INT
        if isinstance(expr, ast.StringLiteral):
            return self.codegen.string_pointer(self.builder, expr.value), \
                CPointer(CHAR)
        if isinstance(expr, ast.Identifier):
            address, ctype = self._lookup(expr)
            if isinstance(ctype, CArray):
                # Arrays decay to a pointer to their first element.
                element_ir = ctype.element.to_ir()
                ptr = self.builder.gep(address, [ConstantInt(I64, 0)],
                                       element_ir)
                return ptr, CPointer(ctype.element)
            if isinstance(ctype, CStruct):
                return address, ctype
            return self.builder.load(address, name=expr.name), ctype
        if isinstance(expr, ast.UnaryOp):
            return self._lower_unary(expr)
        if isinstance(expr, ast.PostfixOp):
            return self._lower_postfix(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._lower_binary(expr)
        if isinstance(expr, ast.LogicalOp):
            return self._lower_logical(expr)
        if isinstance(expr, ast.Assignment):
            return self._lower_assignment(expr)
        if isinstance(expr, ast.Conditional):
            return self._lower_conditional(expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr)
        if isinstance(expr, (ast.Index, ast.Member)):
            address, ctype = self.lower_lvalue(expr)
            if isinstance(ctype, CArray):
                element_ir = ctype.element.to_ir()
                ptr = self.builder.gep(address, [ConstantInt(I64, 0)],
                                       element_ir)
                return ptr, CPointer(ctype.element)
            if isinstance(ctype, CStruct):
                return address, ctype
            return self.builder.load(address), ctype
        if isinstance(expr, ast.Cast):
            value, value_type = self.lower_expr(expr.operand)
            return self.convert(value, value_type, expr.target_type), \
                expr.target_type
        if isinstance(expr, ast.SizeOf):
            if expr.target_type is not None:
                size = expr.target_type.size_in_bytes()
            else:
                assert expr.operand is not None and expr.operand.ctype is not None
                size = expr.operand.ctype.size_in_bytes()
            return ConstantInt(I64, size), ULONG
        raise LoweringError(f"cannot lower {type(expr).__name__}",
                            expr.location)  # pragma: no cover - defensive

    # ------------------------------------------------------------- lvalues
    def lower_lvalue(self, expr: ast.Expr) -> Tuple[Value, CType]:
        """Lower an lvalue expression to (address, ctype of the object)."""
        if isinstance(expr, ast.Identifier):
            return self._lookup(expr)
        if isinstance(expr, ast.UnaryOp) and expr.op == "*":
            value, ctype = self.lower_expr(expr.operand)
            pointer_type = decay(ctype)
            assert isinstance(pointer_type, CPointer)
            return value, self.codegen.resolve_struct(pointer_type.pointee)
        if isinstance(expr, ast.Index):
            base, base_ctype = self.lower_expr(expr.base)
            base_ctype = decay(base_ctype)
            assert isinstance(base_ctype, CPointer)
            element = self.codegen.resolve_struct(base_ctype.pointee)
            index, index_ctype = self.lower_expr(expr.index)
            index = self.convert(index, index_ctype, LONG)
            offset = self.builder.mul(
                index, ConstantInt(I64, element.size_in_bytes()))
            address = self.builder.gep(base, [offset], element.to_ir())
            return address, element
        if isinstance(expr, ast.Member):
            if expr.is_arrow:
                base, base_ctype = self.lower_expr(expr.base)
                base_ctype = decay(base_ctype)
                assert isinstance(base_ctype, CPointer)
                struct = self.codegen.resolve_struct(base_ctype.pointee)
            else:
                base, struct = self.lower_lvalue(expr.base)
                struct = self.codegen.resolve_struct(struct)
            assert isinstance(struct, CStruct)
            index = struct.field_index(expr.field_name)
            field_ctype = self.codegen.resolve_struct(
                struct.field_types[index])
            offset = struct.to_ir().field_offset(index)
            address = self.builder.gep(base, [ConstantInt(I64, offset)],
                                       field_ctype.to_ir())
            return address, field_ctype
        raise LoweringError("expression is not an lvalue", expr.location)

    def _lookup(self, expr: ast.Identifier) -> Tuple[Value, CType]:
        if expr.name in self.locals:
            return self.locals[expr.name]
        if expr.name in self.codegen.global_ctypes:
            return (self.module.get_global(expr.name),
                    self.codegen.global_ctypes[expr.name])
        raise LoweringError(f"unknown identifier '{expr.name}'", expr.location)

    # ------------------------------------------------------------ operators
    def _lower_unary(self, expr: ast.UnaryOp) -> Tuple[Value, CType]:
        if expr.op == "*":
            address, ctype = self.lower_lvalue(expr)
            if isinstance(ctype, (CStruct, CArray)):
                return address, ctype
            return self.builder.load(address), ctype
        if expr.op == "&":
            address, ctype = self.lower_lvalue(expr.operand)
            return address, CPointer(ctype)
        if expr.op in ("++", "--"):
            address, ctype = self.lower_lvalue(expr.operand)
            old = self.builder.load(address)
            new = self._increment(old, ctype, expr.op == "++")
            self.builder.store(new, address)
            return new, ctype
        value, value_type = self.lower_expr(expr.operand)
        result_type = expr.ctype
        assert result_type is not None
        if expr.op == "-":
            value = self.convert(value, value_type, result_type)
            return self.builder.neg(value), result_type
        if expr.op == "~":
            value = self.convert(value, value_type, result_type)
            return self.builder.not_(value), result_type
        if expr.op == "!":
            truth = self._to_bool(value, value_type)
            flipped = self.builder.xor(truth, ConstantInt(I1, 1))
            return self.builder.zext(flipped, I32), INT
        raise LoweringError(f"unknown unary operator '{expr.op}'",
                            expr.location)  # pragma: no cover - defensive

    def _lower_postfix(self, expr: ast.PostfixOp) -> Tuple[Value, CType]:
        address, ctype = self.lower_lvalue(expr.operand)
        old = self.builder.load(address)
        new = self._increment(old, ctype, expr.op == "++")
        self.builder.store(new, address)
        return old, ctype

    def _increment(self, value: Value, ctype: CType, is_increment: bool) -> Value:
        ctype = decay(ctype)
        if isinstance(ctype, CPointer):
            element = self.codegen.resolve_struct(ctype.pointee)
            step = element.size_in_bytes()
            offset = ConstantInt(I64, step if is_increment else -step)
            return self.builder.gep(value, [offset], element.to_ir())
        assert isinstance(value.type, IntType)
        one = ConstantInt(value.type, 1)
        if is_increment:
            return self.builder.add(value, one)
        return self.builder.sub(value, one)

    def _lower_binary(self, expr: ast.BinaryOp) -> Tuple[Value, CType]:
        op = expr.op
        if op == ",":
            self.lower_expr(expr.lhs)
            return self.lower_expr(expr.rhs)
        lhs, lhs_type = self.lower_expr(expr.lhs)
        rhs, rhs_type = self.lower_expr(expr.rhs)
        return self._lower_binary_values(op, lhs, decay(lhs_type),
                                         rhs, decay(rhs_type))

    def _lower_binary_values(self, op: str, lhs: Value, lhs_type: CType,
                             rhs: Value, rhs_type: CType) -> Tuple[Value, CType]:
        # Pointer arithmetic and comparisons.
        if isinstance(lhs_type, CPointer) or isinstance(rhs_type, CPointer):
            return self._lower_pointer_op(op, lhs, lhs_type, rhs, rhs_type)
        assert isinstance(lhs_type, CInt) and isinstance(rhs_type, CInt)
        if op in ("==", "!=", "<", ">", "<=", ">="):
            common = usual_arithmetic_conversion(lhs_type, rhs_type)
            lhs = self.convert(lhs, lhs_type, common)
            rhs = self.convert(rhs, rhs_type, common)
            predicate = _comparison_predicate(op, common.signed)
            result = self.builder.icmp(predicate, lhs, rhs)
            return self.builder.zext(result, I32), INT
        if op in ("<<", ">>"):
            result_type = integer_promote(lhs_type)
            assert isinstance(result_type, CInt)
            lhs = self.convert(lhs, lhs_type, result_type)
            rhs = self.convert(rhs, rhs_type, result_type)
            if op == "<<":
                return self.builder.shl(lhs, rhs), result_type
            if result_type.signed:
                return self.builder.ashr(lhs, rhs), result_type
            return self.builder.lshr(lhs, rhs), result_type
        common = usual_arithmetic_conversion(lhs_type, rhs_type)
        assert isinstance(common, CInt)
        lhs = self.convert(lhs, lhs_type, common)
        rhs = self.convert(rhs, rhs_type, common)
        opcode = _arithmetic_opcode(op, common.signed)
        result = self.builder._binary(opcode, lhs, rhs)
        return result, common

    def _lower_pointer_op(self, op: str, lhs: Value, lhs_type: CType,
                          rhs: Value, rhs_type: CType) -> Tuple[Value, CType]:
        if op in ("==", "!=", "<", ">", "<=", ">="):
            lhs_int = self._pointer_as_int(lhs, lhs_type)
            rhs_int = self._pointer_as_int(rhs, rhs_type)
            predicate = _comparison_predicate(op, signed=False)
            result = self.builder.icmp(predicate, lhs_int, rhs_int)
            return self.builder.zext(result, I32), INT
        if op == "+" and isinstance(lhs_type, CPointer) and rhs_type.is_integer:
            return self._pointer_add(lhs, lhs_type, rhs, rhs_type, negate=False)
        if op == "+" and isinstance(rhs_type, CPointer) and lhs_type.is_integer:
            return self._pointer_add(rhs, rhs_type, lhs, lhs_type, negate=False)
        if op == "-" and isinstance(lhs_type, CPointer) and rhs_type.is_integer:
            return self._pointer_add(lhs, lhs_type, rhs, rhs_type, negate=True)
        if op == "-" and isinstance(lhs_type, CPointer) and \
                isinstance(rhs_type, CPointer):
            element = self.codegen.resolve_struct(lhs_type.pointee)
            lhs_int = self.builder.ptrtoint(lhs, I64)
            rhs_int = self.builder.ptrtoint(rhs, I64)
            diff = self.builder.sub(lhs_int, rhs_int)
            size = ConstantInt(I64, max(1, element.size_in_bytes()))
            return self.builder.sdiv(diff, size), LONG
        raise LoweringError(f"unsupported pointer operation '{op}'")

    def _pointer_as_int(self, value: Value, ctype: CType) -> Value:
        if isinstance(value.type, PointerType):
            return self.builder.ptrtoint(value, I64)
        assert isinstance(ctype, CInt)
        return self.convert(value, ctype, ULONG)

    def _pointer_add(self, pointer: Value, pointer_type: CPointer,
                     offset: Value, offset_type: CType,
                     negate: bool) -> Tuple[Value, CType]:
        element = self.codegen.resolve_struct(pointer_type.pointee)
        offset = self.convert(offset, offset_type, LONG)
        scaled = self.builder.mul(
            offset, ConstantInt(I64, max(1, element.size_in_bytes())))
        if negate:
            scaled = self.builder.neg(scaled)
        address = self.builder.gep(pointer, [scaled], element.to_ir())
        return address, pointer_type

    #: Binary operators whose evaluation can never trap or write memory.
    _PURE_BINARY_OPS = frozenset(
        {"+", "-", "*", "&", "|", "^", "<<", ">>",
         "==", "!=", "<", "<=", ">", ">="})

    def _is_speculatable(self, expr: ast.Expr) -> bool:
        """Whether evaluating ``expr`` unconditionally is unobservable.

        A short-circuit operand that cannot trap, write memory, or call a
        function may be evaluated speculatively, which lets ``&&``/``||``
        lower to straight-line bitwise ``and``/``or`` instead of a branch
        diamond.  Division and modulo are excluded (a zero divisor is a
        runtime error that short-circuiting may be guarding against);
        dereferences, indexing, member access, assignments, and calls are
        excluded for the same reason.  Reads of scalar locals are allowed:
        a load from a stack slot cannot trap in the flat memory model.
        """
        if isinstance(expr, (ast.IntLiteral, ast.CharLiteral)):
            return True
        if isinstance(expr, ast.Identifier):
            return isinstance(expr.ctype, (CInt, CPointer))
        if isinstance(expr, ast.UnaryOp):
            return expr.op in ("!", "-", "~", "+") and \
                self._is_speculatable(expr.operand)
        if isinstance(expr, ast.BinaryOp):
            return expr.op in self._PURE_BINARY_OPS and \
                self._is_speculatable(expr.lhs) and \
                self._is_speculatable(expr.rhs)
        if isinstance(expr, ast.LogicalOp):
            return self._is_speculatable(expr.lhs) and \
                self._is_speculatable(expr.rhs)
        if isinstance(expr, ast.Cast):
            return self._is_speculatable(expr.operand)
        return False

    def _lower_logical(self, expr: ast.LogicalOp) -> Tuple[Value, CType]:
        """Short-circuit ``&&`` / ``||``.

        When the right-hand side is speculation-safe (no traps, no side
        effects, no calls) the operator is lowered branch-free, as a bitwise
        ``and``/``or`` of the two ``i1`` truth values — the same fold GCC
        and Clang apply to cheap short-circuit operands.  For a verifier
        this is the single most valuable compilation choice the front end
        can make: every avoided branch halves the path count of the code
        downstream, at every optimization level including ``-O0``.

        Otherwise the classic lowering applies: a result slot plus a branch
        diamond that skips the right-hand side.
        """
        if self._is_speculatable(expr.rhs):
            lhs = self.lower_condition(expr.lhs)
            rhs = self.lower_condition(expr.rhs)
            if expr.op == "&&":
                combined = self.builder.and_(lhs, rhs)
            else:
                combined = self.builder.or_(lhs, rhs)
            return self.builder.zext(combined, I32), INT

        result_slot = self.builder.alloca(I32, name="logical.result")
        rhs_block = self._new_block("logical.rhs")
        end_block = self._new_block("logical.end")

        lhs = self.lower_condition(expr.lhs)
        lhs_int = self.builder.zext(lhs, I32)
        self.builder.store(lhs_int, result_slot)
        if expr.op == "&&":
            self.builder.cond_br(lhs, rhs_block, end_block)
        else:
            self.builder.cond_br(lhs, end_block, rhs_block)

        self.builder.set_insert_point(rhs_block)
        rhs = self.lower_condition(expr.rhs)
        rhs_int = self.builder.zext(rhs, I32)
        self.builder.store(rhs_int, result_slot)
        self.builder.br(end_block)

        self.builder.set_insert_point(end_block)
        return self.builder.load(result_slot), INT

    def _lower_conditional(self, expr: ast.Conditional) -> Tuple[Value, CType]:
        result_ctype = expr.ctype
        assert result_ctype is not None
        ir_type = result_ctype.to_ir()
        result_slot = self.builder.alloca(ir_type, name="cond.result")
        then_block = self._new_block("cond.then")
        else_block = self._new_block("cond.else")
        end_block = self._new_block("cond.end")

        condition = self.lower_condition(expr.condition)
        self.builder.cond_br(condition, then_block, else_block)

        self.builder.set_insert_point(then_block)
        then_value, then_type = self.lower_expr(expr.then)
        self.builder.store(self.convert(then_value, then_type, result_ctype),
                           result_slot)
        self.builder.br(end_block)

        self.builder.set_insert_point(else_block)
        else_value, else_type = self.lower_expr(expr.otherwise)
        self.builder.store(self.convert(else_value, else_type, result_ctype),
                           result_slot)
        self.builder.br(end_block)

        self.builder.set_insert_point(end_block)
        return self.builder.load(result_slot), result_ctype

    def _lower_assignment(self, expr: ast.Assignment) -> Tuple[Value, CType]:
        address, target_type = self.lower_lvalue(expr.target)
        if expr.op == "=":
            value, value_type = self.lower_expr(expr.value)
            value = self.convert(value, value_type, target_type)
        else:
            op = expr.op[:-1]  # "+=" -> "+"
            current = self.builder.load(address)
            rhs, rhs_type = self.lower_expr(expr.value)
            result, result_type = self._lower_binary_values(
                op, current, decay(target_type), rhs, decay(rhs_type))
            value = self.convert(result, result_type, target_type)
        self.builder.store(value, address)
        return value, target_type

    def _lower_call(self, expr: ast.Call) -> Tuple[Value, CType]:
        callee = self.module.get_function_or_none(expr.callee)
        signature = self.codegen.function_ctypes.get(expr.callee)
        if callee is None or signature is None:
            raise LoweringError(f"call to unknown function '{expr.callee}'",
                                expr.location)
        args: List[Value] = []
        for i, arg in enumerate(expr.args):
            value, value_type = self.lower_expr(arg)
            if i < len(signature.param_types):
                param_type = decay(self.codegen.resolve_struct(
                    signature.param_types[i]))
                value = self.convert(value, value_type, param_type)
            args.append(value)
        result = self.builder.call(callee, args)
        return result, self.codegen.resolve_struct(signature.return_type)

    # ------------------------------------------------------------- casts
    def convert(self, value: Value, from_type: CType, to_type: CType) -> Value:
        """Convert ``value`` from ``from_type`` to ``to_type`` (C semantics)."""
        from_type = decay(from_type)
        to_type = decay(to_type)
        if from_type == to_type:
            return value
        if isinstance(to_type, CVoid):
            return value
        if isinstance(from_type, CInt) and isinstance(to_type, CInt):
            target_ir = int_type(to_type.width)
            if value.type == target_ir:
                return value
            assert isinstance(value.type, IntType)
            if value.type.width > to_type.width:
                return self.builder.trunc(value, target_ir)
            return self.builder.int_cast(value, target_ir, from_type.signed)
        if isinstance(from_type, CPointer) and isinstance(to_type, CPointer):
            return self.builder.bitcast(value, to_type.to_ir())
        if isinstance(from_type, CInt) and isinstance(to_type, CPointer):
            as_long = self.convert(value, from_type, ULONG)
            return self.builder.inttoptr(as_long, to_type.to_ir())
        if isinstance(from_type, CPointer) and isinstance(to_type, CInt):
            as_long = self.builder.ptrtoint(value, I64)
            return self.convert(as_long, ULONG, to_type)
        if isinstance(from_type, CArray) and isinstance(to_type, CPointer):
            return value
        raise LoweringError(f"cannot convert {from_type} to {to_type}")


def _comparison_predicate(op: str, signed: bool) -> ICmpPredicate:
    if op == "==":
        return ICmpPredicate.EQ
    if op == "!=":
        return ICmpPredicate.NE
    table_signed = {"<": ICmpPredicate.SLT, "<=": ICmpPredicate.SLE,
                    ">": ICmpPredicate.SGT, ">=": ICmpPredicate.SGE}
    table_unsigned = {"<": ICmpPredicate.ULT, "<=": ICmpPredicate.ULE,
                      ">": ICmpPredicate.UGT, ">=": ICmpPredicate.UGE}
    return (table_signed if signed else table_unsigned)[op]


def _arithmetic_opcode(op: str, signed: bool) -> Opcode:
    table = {
        "+": Opcode.ADD, "-": Opcode.SUB, "*": Opcode.MUL,
        "&": Opcode.AND, "|": Opcode.OR, "^": Opcode.XOR,
    }
    if op in table:
        return table[op]
    if op == "/":
        return Opcode.SDIV if signed else Opcode.UDIV
    if op == "%":
        return Opcode.SREM if signed else Opcode.UREM
    raise LoweringError(f"unknown arithmetic operator '{op}'")


class Codegen:
    """Lowers a type-checked translation unit into an IR module."""

    def __init__(self, unit: ast.TranslationUnit, module_name: str = "module") -> None:
        self.unit = unit
        self.module = Module(module_name)
        self.function_ctypes: Dict[str, CFunction] = {}
        self.global_ctypes: Dict[str, CType] = {}
        self.structs: Dict[str, CStruct] = {}
        self._string_cache: Dict[bytes, Value] = {}

    def resolve_struct(self, ctype: CType) -> CType:
        """Resolve forward struct references left over from parsing."""
        if isinstance(ctype, CStruct) and not ctype.field_names:
            return self.structs.get(ctype.name, ctype)
        if isinstance(ctype, CPointer):
            return CPointer(self.resolve_struct(ctype.pointee))
        if isinstance(ctype, CArray):
            return CArray(self.resolve_struct(ctype.element), ctype.count)
        return ctype

    def string_pointer(self, builder: IRBuilder, data: bytes) -> Value:
        """Return an ``i8*`` to a (cached) global constant holding ``data``."""
        if data not in self._string_cache:
            name = self.module.unique_global_name(f"str.{len(self._string_cache)}")
            initializer = ConstantArray(I8, list(data) + [0])
            array_type = initializer.type
            gv = self.module.add_global(name, array_type, initializer,
                                        is_constant=True)
            self._string_cache[data] = gv
        gv = self._string_cache[data]
        return builder.gep(gv, [ConstantInt(I64, 0)], I8)

    def run(self) -> Module:
        for struct in self.unit.structs:
            self.structs[struct.name] = CStruct(
                struct.name, tuple(struct.field_names),
                tuple(struct.field_types))
        # Globals first so that function bodies can reference them.
        for gvar in self.unit.globals:
            ctype = self.resolve_struct(gvar.var_type)
            self.global_ctypes[gvar.name] = ctype
            initializer = None
            if isinstance(gvar.initializer, ast.IntLiteral) and \
                    isinstance(ctype, CInt):
                initializer = ConstantInt(int_type(ctype.width),
                                          gvar.initializer.value)
            self.module.add_global(gvar.name, ctype.to_ir(), initializer,
                                   gvar.is_const)
        # Declare every function (so calls across definition order work).
        for definition in self.unit.functions:
            signature = CFunction(
                self.resolve_struct(definition.return_type),
                tuple(self.resolve_struct(p.param_type)
                      for p in definition.parameters),
                definition.is_vararg)
            self.function_ctypes[definition.name] = signature
            if self.module.get_function_or_none(definition.name) is None:
                self.module.create_function(
                    definition.name, signature.to_ir(),
                    [p.name or f"arg{i}" for i, p in
                     enumerate(definition.parameters)])
        # Lower bodies.
        for definition in self.unit.functions:
            if definition.body is None:
                continue
            function = self.module.get_function(definition.name)
            if not function.is_declaration:
                raise LoweringError(
                    f"redefinition of function '{definition.name}'",
                    definition.location)
            with nesting_limit(definition.location):
                _FunctionLowering(self, function, definition).lower()
        return self.module


def lower(unit: ast.TranslationUnit, module_name: str = "module",
          library: Optional["LibraryArchive"] = None,
          entry_points: Iterable[str] = ()) -> Module:
    """Lower a type-checked translation unit to an IR module.

    With the library archive ``unit`` was analysed against, the module is
    linked: the library's declarations and the library functions
    reachable over the AST call graph from ``entry_points`` and from every
    function ``unit`` defines come first, in library order, then
    ``unit``'s own functions.  Walking that graph loads each library
    member it reaches.  A program function that redefines a library
    function is reached by construction, so it is reported as a
    redefinition.
    """
    if library is not None:
        pending = [f.name for f in unit.functions if f.body is not None]
        pending.extend(entry_points)
        reached: Set[str] = set()
        while pending:
            name = pending.pop()
            if name in reached:
                continue
            reached.add(name)
            callees = unit.calls.get(name)
            if callees is None:
                member = library.load(name)
                callees = () if member is None else member.calls.get(name, ())
            pending.extend(callees)
        linked = [function for member in library.members
                  if member.is_declaration or member.name in reached
                  for function in library.load(member.name).functions]
        unit = ast.TranslationUnit(functions=linked + unit.functions,
                                   globals=unit.globals, structs=unit.structs)
    return Codegen(unit, module_name).run()
