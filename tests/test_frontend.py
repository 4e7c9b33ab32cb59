"""Tests for the MiniC front end: lexer, parser, semantic analysis, and
lowering (checked by concretely executing the lowered IR)."""

import pytest

from repro.frontend import (
    CompileError, analyze, compile_to_ir, parse, tokenize,
)
from repro.frontend.lexer import TokenKind
from repro.frontend import ast
from repro.frontend.ctype import CInt, CPointer, INT, UCHAR
from repro.interp import Interpreter
from repro.ir import verify_module
from repro.pipelines import OptLevel, compile_source

from conftest import run_snippet


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------
class TestLexer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("int foo while whileX")
        assert [t.kind for t in tokens[:-1]] == [
            TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.KEYWORD,
            TokenKind.IDENT]

    def test_integer_literals(self):
        tokens = tokenize("42 0x1F 0 123u 5L")
        values = [t.value for t in tokens[:-1]]
        assert values == [42, 31, 0, 123, 5]

    def test_character_literals_and_escapes(self):
        tokens = tokenize(r"'a' '\n' '\t' '\0' '\\' '\x41'")
        assert [t.value for t in tokens[:-1]] == [97, 10, 9, 0, 92, 65]

    def test_string_literals(self):
        tokens = tokenize(r'"hi\n" ""')
        assert tokens[0].string == b"hi\n"
        assert tokens[1].string == b""

    def test_operators_longest_match(self):
        tokens = tokenize("a<<=b>>c<=d<e++ +=")
        texts = [t.text for t in tokens[:-1] if t.kind is TokenKind.PUNCT]
        assert "<<=" in texts and ">>" in texts and "<=" in texts
        assert "++" in texts and "+=" in texts

    def test_comments_and_preprocessor_skipped(self):
        tokens = tokenize("""
            // line comment
            #include <stdio.h>
            /* block
               comment */ int x;
        """)
        assert tokens[0][:2] == (TokenKind.KEYWORD, "int")

    def test_unterminated_string_reports_error(self):
        with pytest.raises(CompileError, match="unterminated"):
            tokenize('"oops')

    def test_unknown_character_reports_error(self):
        with pytest.raises(CompileError, match="unexpected character"):
            tokenize("int $x;")

    def test_locations_tracked(self):
        tokens = tokenize("int\n  x;")
        assert tokens[0].location.line == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_tokens_are_immutable_values(self):
        token = tokenize("int\n  x;", "f.c")[1]
        assert str(token.location) == "f.c:2:3"
        assert token == tokenize("int\n  x;", "f.c")[1]
        assert len({token, tokenize("int\n  x;", "f.c")[1]}) == 1
        with pytest.raises(AttributeError):
            token.location.line = 1

    # Malformed literals are diagnosed where they stand; tokenize used to
    # raise a bare ValueError on some of them and accept the others.
    def _error(self, source):
        with pytest.raises(CompileError) as excinfo:
            tokenize(source)
        return excinfo.value.message, excinfo.value.location.column

    def test_hex_literal_without_digits_reports_error(self):
        assert self._error("int f(void) { return 0x; }") == (
            "hexadecimal literal '0x' has no digits", 22)

    def test_non_ascii_digit_reports_error(self):
        assert self._error("return \u00b2;") == (
            "unexpected character '\u00b2'", 8)
        assert self._error("return 1\u0663;") == (
            "unexpected character '\u0663'", 9)

    def test_non_byte_character_in_string_reports_error(self):
        assert self._error('char *s = "ok \u20ac";') == (
            "character '\u20ac' in a string literal is not a byte", 15)

    def test_non_byte_character_literal_reports_error(self):
        assert self._error("int c = '\u20ac';") == (
            "character '\u20ac' in a character literal is not a byte", 10)

    def test_identifiers_are_ascii(self):
        assert self._error("int \u00e9 = 1;") == (
            "unexpected character '\u00e9'", 5)

    def test_latin1_characters_in_literals_are_bytes(self):
        tokens = tokenize("'\u00e9' \"\u00ff\"")
        assert tokens[0].value == 0xE9 and tokens[1].string == b"\xff"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
class TestParser:
    def test_function_definition_shape(self):
        unit = parse("int add(int a, int b) { return a + b; }")
        assert len(unit.functions) == 1
        function = unit.functions[0]
        assert function.name == "add"
        assert [p.name for p in function.parameters] == ["a", "b"]
        assert isinstance(function.body.statements[0], ast.Return)

    def test_extern_declaration(self):
        unit = parse("extern int isspace(int c);")
        assert unit.functions[0].body is None

    def test_global_and_array_declarations(self):
        unit = parse("int counter = 3; unsigned char buffer[16];")
        assert unit.globals[0].name == "counter"
        assert unit.globals[1].var_type.count == 16

    def test_struct_definition(self):
        unit = parse("""
            struct point { int x; int y; };
            int get_x(struct point *p) { return p->x; }
        """)
        assert unit.structs[0].field_names == ["x", "y"]

    def test_operator_precedence(self):
        unit = parse("int f(int a, int b, int c) { return a + b * c; }")
        ret = unit.functions[0].body.statements[0]
        assert isinstance(ret.value, ast.BinaryOp)
        assert ret.value.op == "+"
        assert ret.value.rhs.op == "*"

    def test_logical_operators_are_short_circuit_nodes(self):
        unit = parse("int f(int a, int b) { return a && b || a; }")
        expr = unit.functions[0].body.statements[0].value
        assert isinstance(expr, ast.LogicalOp)
        assert expr.op == "||"
        assert isinstance(expr.lhs, ast.LogicalOp)

    def test_ternary_and_assignment(self):
        unit = parse("int f(int a) { int b = a ? 1 : 2; b += 3; return b; }")
        body = unit.functions[0].body.statements
        assert isinstance(body[0].initializer, ast.Conditional)
        assert isinstance(body[1].expr, ast.Assignment)
        assert body[1].expr.op == "+="

    def test_control_flow_statements(self):
        unit = parse("""
            int f(int n) {
                int total = 0;
                for (int i = 0; i < n; i++) {
                    if (i == 3) { continue; }
                    while (0) { break; }
                    do { total += i; } while (0);
                }
                return total;
            }
        """)
        loop = unit.functions[0].body.statements[1]
        assert isinstance(loop, ast.For)
        assert isinstance(loop.body.statements[0], ast.If)

    def test_pointer_and_cast_expressions(self):
        unit = parse("""
            long f(unsigned char *p) { return (long)*p + sizeof(int); }
        """)
        assert unit.functions[0].parameters[0].param_type == CPointer(UCHAR)

    def test_missing_semicolon_reports_error(self):
        with pytest.raises(CompileError, match="expected"):
            parse("int f() { return 1 }")

    def test_unbalanced_braces_report_error(self):
        with pytest.raises(CompileError):
            parse("int f() { if (1) { return 0; }")

    @pytest.mark.parametrize("declaration, literal, message", [
        ("unsigned char a[0];", "0", "must be positive"),
        ("unsigned char a[99999999999999999999999];", "9999",
         "larger than 2147483647 bytes"),
        ("int a[536870912];", "536870912", "larger than"),  # 2 GiB of int
        ("char a[2][1073741824];", "2", "larger than"),  # the outer size
        ("struct s { char b[0]; };", "0", "must be positive"),
        ("void a[3];", "3", "array of void"),
    ])
    def test_array_size_out_of_range_is_an_error_at_its_literal(
            self, declaration, literal, message):
        """A zero dimension and an array above 2**31 - 1 bytes are
        diagnosed at the size literal; they used to compile, and the
        memory model gave the zero-size array a byte, so an access past
        it ran unflagged."""
        source = f"int n;\n  {declaration}\n"
        with pytest.raises(CompileError, match=message) as excinfo:
            parse(source)
        location = excinfo.value.location
        assert (location.line, location.column) == \
            (2, 3 + declaration.index(literal))

    def test_largest_array_is_accepted(self):
        unit = parse("char a[2147483647]; int b[536870911];")
        assert [g.var_type.size_in_bytes() for g in unit.globals] == \
            [2**31 - 1, 2**31 - 4]


# ---------------------------------------------------------------------------
# Semantic analysis
# ---------------------------------------------------------------------------
class TestSema:
    def test_expression_types_annotated(self):
        unit = analyze(parse("int f(int a) { return a + 1; }"))
        ret = unit.functions[0].body.statements[0]
        assert ret.value.ctype == INT

    def test_undeclared_identifier(self):
        with pytest.raises(CompileError, match="undeclared identifier"):
            analyze(parse("int f() { return missing; }"))

    def test_undeclared_function(self):
        with pytest.raises(CompileError, match="undeclared function"):
            analyze(parse("int f() { return g(); }"))

    @pytest.mark.parametrize("literal", [
        "1111111111111111111111111111111111111111",  # 40 decimal digits
        "18446744073709551616",  # 2**64
        "0x10000000000000000",
    ])
    def test_integer_literal_wider_than_64_bits_is_an_error(self, literal):
        source = f"int f(void) {{\n  return {literal};\n}}\n"
        with pytest.raises(CompileError, match="too large") as excinfo:
            analyze(parse(source))
        location = excinfo.value.location
        assert (location.line, location.column) == (2, 10)

    @pytest.mark.parametrize("literal", ["18446744073709551615",
                                         "0xFFFFFFFFFFFFFFFF"])
    def test_largest_64_bit_literal_is_accepted(self, literal):
        unit = analyze(parse(f"long f(void) {{ return {literal}; }}"))
        assert unit.functions[0].body.statements[0].value.ctype.width == 64

    def test_call_arity_checked(self):
        with pytest.raises(CompileError, match="expects 2 arguments"):
            analyze(parse("int g(int a, int b) { return a; }"
                          "int f() { return g(1); }"))

    def test_redeclaration_in_same_scope(self):
        with pytest.raises(CompileError, match="redeclaration"):
            analyze(parse("int f() { int x; int x; return 0; }"))

    def test_shadowing_in_inner_scope_allowed(self):
        analyze(parse("int f() { int x = 1; { int x = 2; } return x; }"))

    def test_break_outside_loop(self):
        with pytest.raises(CompileError, match="outside of a loop"):
            analyze(parse("int f() { break; return 0; }"))

    def test_return_value_in_void_function(self):
        with pytest.raises(CompileError, match="void function"):
            analyze(parse("void f() { return 3; }"))

    def test_missing_return_value(self):
        with pytest.raises(CompileError, match="without a value"):
            analyze(parse("int f() { return; }"))

    def test_assignment_to_rvalue(self):
        with pytest.raises(CompileError, match="not assignable"):
            analyze(parse("int f(int a) { (a + 1) = 3; return a; }"))

    def test_dereference_of_non_pointer(self):
        with pytest.raises(CompileError, match="dereference"):
            analyze(parse("int f(int a) { return *a; }"))

    def test_member_access_on_non_struct(self):
        with pytest.raises(CompileError, match="non-struct"):
            analyze(parse("int f(int a) { return a.x; }"))

    def test_struct_member_types(self):
        unit = analyze(parse("""
            struct pair { int first; char second; };
            int f(struct pair *p) { return p->first + p->second; }
        """))
        # The addition promotes char to int.
        ret = unit.functions[0].body.statements[0]
        assert ret.value.ctype == INT


# ---------------------------------------------------------------------------
# Lowering (validated by executing the result)
# ---------------------------------------------------------------------------
class TestLowering:
    def test_lowered_module_verifies(self):
        module = compile_to_ir("int f(int a) { return a * 2 + 1; }")
        verify_module(module)

    @pytest.mark.parametrize("source,function,args,expected", [
        ("int f(int a, int b) { return a + b; }", "f", [3, 4], 7),
        ("int f(int a) { return -a; }", "f", [5], (-5) & 0xFFFFFFFF),
        ("int f(int a) { return !a; }", "f", [0], 1),
        ("int f(int a) { return ~a; }", "f", [0], 0xFFFFFFFF),
        ("int f(int a, int b) { return a % b; }", "f", [17, 5], 2),
        ("int f(int a) { return a << 3; }", "f", [2], 16),
        ("int f(int a, int b) { return a < b; }", "f", [1, 2], 1),
        ("int f(int a, int b) { return a == b; }", "f", [2, 2], 1),
        ("int f(int a, int b) { return a && b; }", "f", [1, 0], 0),
        ("int f(int a, int b) { return a || b; }", "f", [0, 2], 1),
        ("int f(int a) { return a > 0 ? a : -a; }", "f", [-3 & 0xFFFFFFFF], 3),
    ])
    def test_expression_lowering(self, source, function, args, expected):
        result = run_snippet(source, function, args)
        assert not result.crashed
        assert result.return_value == expected

    def test_unsigned_vs_signed_comparison(self):
        # 255 as unsigned char is greater than 1; as signed char it is -1.
        src_unsigned = "int f(unsigned char a) { return a > 1; }"
        src_signed = "int f(char a) { return a > 1; }"
        assert run_snippet(src_unsigned, "f", [255]).return_value == 1
        assert run_snippet(src_signed, "f", [255]).return_value == 0

    def test_loops_and_mutation(self):
        source = """
        int sum_to(int n) {
            int total = 0;
            for (int i = 1; i <= n; i++) {
                total += i;
            }
            return total;
        }
        """
        assert run_snippet(source, "sum_to", [10]).return_value == 55

    def test_while_break_continue(self):
        source = """
        int f(int n) {
            int total = 0;
            int i = 0;
            while (1) {
                i = i + 1;
                if (i > n) { break; }
                if (i % 2 == 0) { continue; }
                total = total + i;
            }
            return total;
        }
        """
        assert run_snippet(source, "f", [10]).return_value == 25  # 1+3+5+7+9

    def test_do_while(self):
        source = "int f(int n) { int i = 0; do { i++; } while (i < n); return i; }"
        assert run_snippet(source, "f", [5]).return_value == 5
        assert run_snippet(source, "f", [0]).return_value == 1

    def test_pointer_arithmetic_and_deref(self):
        source = """
        int f(int which) {
            unsigned char data[4];
            data[0] = 10; data[1] = 20; data[2] = 30; data[3] = 40;
            unsigned char *p = data;
            p = p + which;
            return *p;
        }
        """
        assert run_snippet(source, "f", [2]).return_value == 30

    def test_pointer_difference(self):
        source = """
        long f() {
            int data[8];
            int *a = data;
            int *b = data + 5;
            return b - a;
        }
        """
        assert run_snippet(source, "f", []).return_value == 5

    def test_struct_field_access(self):
        source = """
        struct pair { int first; int second; };
        int f(int x, int y) {
            struct pair p;
            p.first = x;
            p.second = y;
            return p.first * 100 + p.second;
        }
        """
        assert run_snippet(source, "f", [3, 7]).return_value == 307

    def test_struct_pointer_arrow(self):
        source = """
        struct node { int value; int weight; };
        int get(struct node *n) { return n->value + n->weight; }
        int f() {
            struct node n;
            n.value = 4;
            n.weight = 9;
            return get(&n);
        }
        """
        assert run_snippet(source, "f", []).return_value == 13

    def test_string_literals_are_null_terminated_globals(self):
        source = """
        int f() {
            unsigned char *s = (unsigned char *)"abc";
            int total = 0;
            while (*s) {
                total = total + *s;
                s = s + 1;
            }
            return total;
        }
        """
        assert run_snippet(source, "f", []).return_value == 97 + 98 + 99

    def test_global_variable_initialization_and_update(self):
        source = """
        int counter = 5;
        int bump(int by) { counter = counter + by; return counter; }
        int f() { bump(3); return bump(2); }
        """
        assert run_snippet(source, "f", []).return_value == 10

    def test_recursion(self):
        source = "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }"
        assert run_snippet(source, "fact", [6]).return_value == 720

    def test_prefix_postfix_increment(self):
        source = """
        int f() {
            int i = 5;
            int a = i++;
            int b = ++i;
            return a * 100 + b * 10 + i;
        }
        """
        # a=5, then i=6, then i=7 and b=7, i=7.
        assert run_snippet(source, "f", []).return_value == 577

    def test_char_literal_and_cast(self):
        source = "int f(int c) { return (unsigned char)(c + 'a'); }"
        assert run_snippet(source, "f", [1]).return_value == 98

    def test_comma_operator(self):
        source = "int f(int a) { int b = (a += 1, a * 2); return b; }"
        assert run_snippet(source, "f", [3]).return_value == 8

    def test_sizeof(self):
        source = "long f() { return sizeof(int) + sizeof(char) + sizeof(long); }"
        assert run_snippet(source, "f", []).return_value == 13

    def test_source_type_metadata_preserved_on_allocas(self):
        module = compile_to_ir("int f(unsigned char c) { int x = c; return x; }")
        allocas = [i for i in module.get_function("f").instructions()
                   if i.opcode.value == "alloca"]
        assert any(i.metadata.get("source.type") for i in allocas)


# ---------------------------------------------------------------------------
# Diagnostics through the linking driver
# ---------------------------------------------------------------------------
class TestDriverDiagnostics:
    """``compile_source`` links the vlibc as a separately analysed unit;
    diagnostics point into the program as the user wrote it."""

    def test_locations_are_relative_to_the_program(self):
        source = ("int main(unsigned char *input, int len) {\n"
                  "  return missing;\n"
                  "}\n")
        for level in (OptLevel.O0, OptLevel.OVERIFY):  # both vlibc variants
            with pytest.raises(CompileError) as excinfo:
                compile_source(source, level=level)
            assert str(excinfo.value.location) == "<source>:2:10"
        with pytest.raises(CompileError) as excinfo:
            compile_to_ir(source)
        assert str(excinfo.value.location) == "<source>:2:10"

    @pytest.mark.parametrize("level", list(OptLevel), ids=str)
    def test_errors_are_located_on_program_lines_at_every_level(self,
                                                                 level):
        # A parse error, a sema error and a lowering error, each on line 3.
        cases = [
            ("int helper(int a) {\n  int b = a;\n  return a +;\n}\n",
             "<source>:3:13"),
            ("int main(unsigned char *input, int len) {\n  int n = 0;\n"
             "  return strlen(n, n);\n}\n", "<source>:3:10"),
            ("int main(unsigned char *input, int len) {\n  return 0;\n}\n"
             "long strlen(unsigned char *s) {\n  return 0;\n}\n",
             "<source>:4:6"),
        ]
        for source, location in cases:
            with pytest.raises(CompileError) as excinfo:
                compile_source(source, level=level)
            assert str(excinfo.value.location) == location, source

    @pytest.mark.parametrize("level", list(OptLevel), ids=str)
    def test_redefining_a_library_function_is_an_error(self, level):
        source = ("int main(unsigned char *input, int len) {\n"
                  "  return 0;\n"
                  "}\n"
                  "long strlen(unsigned char *s) {\n"
                  "  return 0;\n"
                  "}\n")
        with pytest.raises(CompileError,
                           match="redefinition of function 'strlen'") \
                as excinfo:
            compile_source(source, level=level)
        assert str(excinfo.value.location) == "<source>:4:6"

    def test_library_functions_are_declared_but_others_are_not(self):
        calls_library = ("int main(unsigned char *input, int len) {\n"
                         "  return isdigit(input[0]);\n"
                         "}\n")
        assert compile_source(calls_library, level=OptLevel.O0).module \
            .get_function("isdigit") is not None
        calls_nothing = ("int main(unsigned char *input, int len) {\n"
                         "  return strlen_or_not(input);\n"
                         "}\n")
        for level in OptLevel:
            with pytest.raises(CompileError,
                               match="undeclared function 'strlen_or_not'") \
                    as excinfo:
                compile_source(calls_nothing, level=level)
            assert str(excinfo.value.location) == "<source>:2:10"

    def test_deep_nesting_is_a_compile_error_with_a_location(self):
        source = ("int main(unsigned char *input, int len) {\n"
                  "  int x = " + "(" * 200 + "1" + ")" * 200 + ";\n"
                  "  return x;\n"
                  "}\n")
        with pytest.raises(CompileError, match="nested too deeply") \
                as excinfo:
            compile_source(source, level=OptLevel.O0)
        location = excinfo.value.location
        assert (location.filename, location.line) == ("<source>", 2)
        assert location.column > 10  # inside the parentheses

    def test_deep_expression_trees_are_compile_errors(self):
        # Left-deep operator chains and prefix-operator chains parse
        # iteratively but recurse in sema and lowering.
        for expression in ("+".join(["1"] * 3000), "- " * 1500 + "1"):
            source = ("int main(unsigned char *input, int len) {\n"
                      f"  return {expression};\n"
                      "}\n")
            with pytest.raises(CompileError, match="nested too deeply") \
                    as excinfo:
                compile_source(source, level=OptLevel.O0)
            assert excinfo.value.location.filename == "<source>"
