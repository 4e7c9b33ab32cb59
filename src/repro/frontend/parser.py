"""Recursive-descent parser for MiniC."""

from __future__ import annotations

from typing import Dict, List, Optional

from . import ast
from .ctype import (
    BOOL, CArray, CHAR, CPointer, CStruct, CType, INT, LONG, SHORT, UCHAR,
    UINT, ULONG, USHORT, VOID,
)
from .lexer import Token, TokenKind, tokenize
from .source import CompileError

# Operator precedence for the binary-expression climbing parser.  Higher
# binds tighter.  Assignment and the conditional operator are handled
# separately because of their right associativity.
_BINARY_PRECEDENCE: Dict[str, int] = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
_UNARY_OPS = {"+", "-", "!", "~", "*", "&", "++", "--"}
_TYPE_KEYWORDS = {"void", "char", "short", "int", "long", "unsigned", "signed",
                  "_Bool", "const", "struct"}

#: The largest array a declaration may make, in bytes.
_MAX_ARRAY_BYTES = 2**31 - 1


class Parser:
    """Parses a token stream into a :class:`repro.frontend.ast.TranslationUnit`.

    Only punctuation tokens spell a punctuator and only keyword tokens a
    keyword, so the parser tests either with one compare of ``text``.
    """

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.struct_types: Dict[str, CStruct] = {}

    # ------------------------------------------------------------ utilities
    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _peek_ahead(self, offset: int) -> Token:
        index = self.pos + offset
        return self.tokens[index if index < len(self.tokens) else -1]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _check_punct(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def _accept_punct(self, text: str) -> bool:
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def _expect_punct(self, text: str) -> Token:
        token = self.tokens[self.pos]
        if token.text != text:
            raise CompileError(f"expected '{text}', found '{token.text}'",
                               token.location)
        self.pos += 1
        return token

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise CompileError(f"expected identifier, found '{token.text}'",
                               token.location)
        return self._advance()

    # ------------------------------------------------------------ types
    def _at_type_start(self) -> bool:
        return self.tokens[self.pos].text in _TYPE_KEYWORDS

    def _parse_base_type(self) -> CType:
        token = self._peek()
        # const is accepted and ignored (MiniC has no const semantics).
        while token.text == "const":
            self._advance()
            token = self._peek()
        if token.text == "struct":
            self._advance()
            name_tok = self._expect_ident()
            if name_tok.text not in self.struct_types:
                # Allow forward references; fields get filled in at definition.
                self.struct_types[name_tok.text] = CStruct(name_tok.text)
            return self.struct_types[name_tok.text]

        signed = True
        saw_sign = False
        if token.text == "unsigned":
            signed = False
            saw_sign = True
            self._advance()
        elif token.text == "signed":
            saw_sign = True
            self._advance()

        token = self._peek()
        text = token.text
        if text == "void":
            self._advance()
            return VOID
        if text == "_Bool":
            self._advance()
            return BOOL
        if text == "char":
            self._advance()
            return CHAR if signed else UCHAR
        if text == "short":
            self._advance()
            if self._peek().text == "int":
                self._advance()
            return SHORT if signed else USHORT
        if text == "long":
            self._advance()
            if self._peek().text == "long":
                self._advance()
            if self._peek().text == "int":
                self._advance()
            return LONG if signed else ULONG
        if text == "int":
            self._advance()
            return INT if signed else UINT
        if saw_sign:
            return INT if signed else UINT
        raise CompileError(f"expected type, found '{token.text}'", token.location)

    def _parse_type(self) -> CType:
        ty = self._parse_base_type()
        while self._accept_punct("*"):
            while self._peek().text == "const":
                self._advance()
            ty = CPointer(ty)
        return ty

    # --------------------------------------------------------- top level
    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while self._peek().kind is not TokenKind.EOF:
            token = self._peek()
            if token.text == "struct" and self._peek_ahead(2).text == "{":
                unit.structs.append(self._parse_struct_def())
                continue
            is_extern = False
            while self._peek().text in ("extern", "static"):
                if self._advance().text == "extern":
                    is_extern = True
            base = self._parse_type()
            name_tok = self._expect_ident()
            if self._check_punct("("):
                unit.functions.append(
                    self._parse_function(base, name_tok, is_extern))
            else:
                unit.globals.append(self._parse_global(base, name_tok))
        return unit

    def _parse_struct_def(self) -> ast.StructDef:
        location = self._peek().location
        self._advance()  # struct
        name_tok = self._expect_ident()
        self._expect_punct("{")
        field_names: List[str] = []
        field_types: List[CType] = []
        while not self._check_punct("}"):
            field_type = self._parse_type()
            field_name = self._expect_ident()
            field_type = self._parse_array_suffix(field_type)
            field_names.append(field_name.text)
            field_types.append(field_type)
            self._expect_punct(";")
        self._expect_punct("}")
        self._expect_punct(";")
        struct = CStruct(name_tok.text, tuple(field_names), tuple(field_types))
        self.struct_types[name_tok.text] = struct
        return ast.StructDef(name=name_tok.text, field_names=field_names,
                             field_types=field_types, location=location)

    def _parse_array_suffix(self, ty: CType) -> CType:
        sizes: List[Token] = []
        while self._accept_punct("["):
            size_tok = self._peek()
            if size_tok.kind is not TokenKind.INT_LITERAL:
                raise CompileError("array size must be an integer literal",
                                   size_tok.location)
            self._advance()
            self._expect_punct("]")
            sizes.append(size_tok)
        for size_tok in reversed(sizes):
            if ty.is_void:
                raise CompileError("array of void", size_tok.location)
            if size_tok.value == 0:
                raise CompileError("array size must be positive",
                                   size_tok.location)
            ty = CArray(ty, size_tok.value)
            if ty.size_in_bytes() > _MAX_ARRAY_BYTES:
                raise CompileError(f"array is larger than {_MAX_ARRAY_BYTES} "
                                   f"bytes", size_tok.location)
        return ty

    def _parse_global(self, var_type: CType, name_tok: Token) -> ast.GlobalDecl:
        var_type = self._parse_array_suffix(var_type)
        initializer: Optional[ast.Expr] = None
        if self._accept_punct("="):
            initializer = self._parse_assignment_expr()
        self._expect_punct(";")
        return ast.GlobalDecl(name=name_tok.text, var_type=var_type,
                              initializer=initializer,
                              location=name_tok.location)

    def _parse_function(self, return_type: CType, name_tok: Token,
                        is_extern: bool) -> ast.FunctionDef:
        self._expect_punct("(")
        parameters: List[ast.Parameter] = []
        is_vararg = False
        if self._peek().text == "void" and self._peek_ahead(1).text == ")":
            self._advance()
        elif not self._check_punct(")"):
            while True:
                if self._accept_punct("..."):
                    is_vararg = True
                    break
                param_type = self._parse_type()
                param_name = ""
                if self._peek().kind is TokenKind.IDENT:
                    param_name = self._advance().text
                param_type = self._parse_array_suffix(param_type)
                parameters.append(ast.Parameter(name=param_name,
                                                param_type=param_type))
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        body: Optional[ast.Block] = None
        if self._check_punct("{"):
            body = self._parse_block()
        else:
            self._expect_punct(";")
        return ast.FunctionDef(name=name_tok.text, return_type=return_type,
                               parameters=parameters, body=body,
                               is_vararg=is_vararg, location=name_tok.location)

    # --------------------------------------------------------- statements
    def _parse_block(self) -> ast.Block:
        location = self._expect_punct("{").location
        statements: List[ast.Stmt] = []
        while not self._check_punct("}"):
            statements.append(self._parse_statement())
        self._expect_punct("}")
        return ast.Block(statements=statements, location=location)

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        text = token.text
        if text == "{":
            return self._parse_block()
        if text == ";":
            self._advance()
            return ast.EmptyStmt(location=token.location)
        if text == "if":
            return self._parse_if()
        if text == "while":
            return self._parse_while()
        if text == "do":
            return self._parse_do_while()
        if text == "for":
            return self._parse_for()
        if text == "return":
            self._advance()
            value = None
            if not self._check_punct(";"):
                value = self._parse_expression()
            self._expect_punct(";")
            return ast.Return(value=value, location=token.location)
        if text == "break":
            self._advance()
            self._expect_punct(";")
            return ast.Break(location=token.location)
        if text == "continue":
            self._advance()
            self._expect_punct(";")
            return ast.Continue(location=token.location)
        if self._at_type_start():
            return self._parse_declaration()
        expr = self._parse_expression()
        self._expect_punct(";")
        return ast.ExprStmt(expr=expr, location=token.location)

    def _parse_declaration(self) -> ast.Stmt:
        location = self._peek().location
        base = self._parse_base_type()
        declarations: List[ast.Stmt] = []
        while True:
            var_type: CType = base
            while self._accept_punct("*"):
                var_type = CPointer(var_type)
            name_tok = self._expect_ident()
            var_type = self._parse_array_suffix(var_type)
            initializer = None
            if self._accept_punct("="):
                initializer = self._parse_assignment_expr()
            declarations.append(ast.Declaration(
                name=name_tok.text, var_type=var_type,
                initializer=initializer, location=name_tok.location))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        if len(declarations) == 1:
            return declarations[0]
        return ast.Block(statements=declarations, location=location)

    def _parse_if(self) -> ast.If:
        location = self._advance().location  # if
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement()
        otherwise = None
        if self._peek().text == "else":
            self._advance()
            otherwise = self._parse_statement()
        return ast.If(condition=condition, then=then, otherwise=otherwise,
                      location=location)

    def _parse_while(self) -> ast.While:
        location = self._advance().location
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.While(condition=condition, body=body, location=location)

    def _parse_do_while(self) -> ast.DoWhile:
        location = self._advance().location
        body = self._parse_statement()
        if self._peek().text != "while":
            raise CompileError("expected 'while' after do-body",
                               self._peek().location)
        self._advance()
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.DoWhile(body=body, condition=condition, location=location)

    def _parse_for(self) -> ast.For:
        location = self._advance().location
        self._expect_punct("(")
        init: Optional[ast.Stmt] = None
        if not self._check_punct(";"):
            if self._at_type_start():
                init = self._parse_declaration()
            else:
                expr = self._parse_expression()
                self._expect_punct(";")
                init = ast.ExprStmt(expr=expr, location=expr.location)
        else:
            self._advance()
        condition = None
        if not self._check_punct(";"):
            condition = self._parse_expression()
        self._expect_punct(";")
        step = None
        if not self._check_punct(")"):
            step = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.For(init=init, condition=condition, step=step, body=body,
                       location=location)

    # --------------------------------------------------------- expressions
    def _parse_expression(self) -> ast.Expr:
        expr = self._parse_assignment_expr()
        while self._accept_punct(","):
            # The comma operator evaluates both sides; model as a binary op.
            rhs = self._parse_assignment_expr()
            expr = ast.BinaryOp(op=",", lhs=expr, rhs=rhs,
                                location=expr.location)
        return expr

    def _parse_assignment_expr(self) -> ast.Expr:
        lhs = self._parse_conditional_expr()
        token = self._peek()
        if token.text in _ASSIGN_OPS:
            self._advance()
            rhs = self._parse_assignment_expr()
            return ast.Assignment(op=token.text, target=lhs, value=rhs,
                                  location=token.location)
        return lhs

    def _parse_conditional_expr(self) -> ast.Expr:
        condition = self._parse_binary_expr(0)
        if self._accept_punct("?"):
            then = self._parse_expression()
            self._expect_punct(":")
            otherwise = self._parse_conditional_expr()
            return ast.Conditional(condition=condition, then=then,
                                   otherwise=otherwise,
                                   location=condition.location)
        return condition

    def _parse_binary_expr(self, min_precedence: int) -> ast.Expr:
        lhs = self._parse_unary_expr()
        while True:
            token = self.tokens[self.pos]
            precedence = _BINARY_PRECEDENCE.get(token.text)
            if precedence is None or precedence < min_precedence:
                return lhs
            self.pos += 1
            rhs = self._parse_binary_expr(precedence + 1)
            if token.text in ("&&", "||"):
                lhs = ast.LogicalOp(op=token.text, lhs=lhs, rhs=rhs,
                                    location=token.location)
            else:
                lhs = ast.BinaryOp(op=token.text, lhs=lhs, rhs=rhs,
                                   location=token.location)

    def _parse_unary_expr(self) -> ast.Expr:
        token = self.tokens[self.pos]
        if token.text in _UNARY_OPS:
            self.pos += 1
            operand = self._parse_unary_expr()
            if token.text == "+":
                return operand
            return ast.UnaryOp(op=token.text, operand=operand,
                               location=token.location)
        if token.text == "sizeof":
            self._advance()
            self._expect_punct("(")
            if self._at_type_start():
                target_type = self._parse_type()
                target_type = self._parse_array_suffix(target_type)
                self._expect_punct(")")
                return ast.SizeOf(target_type=target_type,
                                  location=token.location)
            operand = self._parse_expression()
            self._expect_punct(")")
            return ast.SizeOf(operand=operand, location=token.location)
        # A parenthesized type is a cast.
        if token.text == "(" and self._peek_ahead(1).text in _TYPE_KEYWORDS:
            self._advance()
            target_type = self._parse_type()
            self._expect_punct(")")
            operand = self._parse_unary_expr()
            return ast.Cast(target_type=target_type, operand=operand,
                            location=token.location)
        return self._parse_postfix_expr()

    def _parse_postfix_expr(self) -> ast.Expr:
        expr = self._parse_primary_expr()
        while True:
            token = self.tokens[self.pos]
            text = token.text
            if text == "[":
                self.pos += 1
                index = self._parse_expression()
                self._expect_punct("]")
                expr = ast.Index(base=expr, index=index,
                                 location=token.location)
            elif text == ".":
                self.pos += 1
                field = self._expect_ident()
                expr = ast.Member(base=expr, field_name=field.text,
                                  is_arrow=False, location=token.location)
            elif text == "->":
                self.pos += 1
                field = self._expect_ident()
                expr = ast.Member(base=expr, field_name=field.text,
                                  is_arrow=True, location=token.location)
            elif text == "++" or text == "--":
                self.pos += 1
                expr = ast.PostfixOp(op=text, operand=expr,
                                     location=token.location)
            else:
                return expr

    def _parse_primary_expr(self) -> ast.Expr:
        token = self.tokens[self.pos]
        kind = token.kind
        if kind is TokenKind.IDENT:
            self.pos += 1
            if self._accept_punct("("):
                args: List[ast.Expr] = []
                if not self._check_punct(")"):
                    while True:
                        args.append(self._parse_assignment_expr())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                return ast.Call(callee=token.text, args=args,
                                location=token.location)
            return ast.Identifier(name=token.text, location=token.location)
        if kind is TokenKind.INT_LITERAL:
            self.pos += 1
            return ast.IntLiteral(value=token.value, location=token.location)
        if kind is TokenKind.CHAR_LITERAL:
            self.pos += 1
            return ast.CharLiteral(value=token.value, location=token.location)
        if kind is TokenKind.STRING_LITERAL:
            self.pos += 1
            return ast.StringLiteral(value=token.string, location=token.location)
        if token.text == "(":
            self.pos += 1
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise CompileError(f"unexpected token '{token.text}'", token.location)


def parse(source: str, filename: str = "<source>") -> ast.TranslationUnit:
    """Parse MiniC ``source`` into an AST."""
    parser = Parser(tokenize(source, filename))
    try:
        return parser.parse_translation_unit()
    except RecursionError:
        raise CompileError("nested too deeply to compile",
                           parser.tokens[parser.pos].location) from None
