import pytest

from epart.dsl import ast, parse_program
from epart.dsl.lexer import tokenize
from epart.errors import ParseError


def parse_one(body: str) -> ast.Program:
    return parse_program(f"""
@Untrusted
class Main {{
    static main() {{
{body}
    }}
}}
""")


def main_stmts(prog: ast.Program) -> list[ast.Stmt]:
    return prog.classes[0].methods[0].body


class TestLexer:
    def test_tokens_carry_positions(self):
        toks = tokenize("class A {\n  x: Int;\n}")
        assert toks[0].text == "class" and toks[0].line == 1
        x = next(t for t in toks if t.text == "x")
        assert (x.line, x.col) == (2, 3)

    def test_comments_and_whitespace_skipped(self):
        toks = tokenize("# a comment\nclass # trailing\nA")
        assert [t.text for t in toks if t.text] == ["class", "A"]

    def test_string_escapes(self):
        toks = tokenize(r'"a\nb\t\"q\\"')
        assert toks[0].text == 'a\nb\t"q\\'

    def test_unterminated_string_rejected(self):
        with pytest.raises(ParseError):
            tokenize('"abc')

    def test_unknown_escape_rejected(self):
        with pytest.raises(ParseError):
            tokenize(r'"\z"')


class TestParser:
    def test_bank_shape(self, bank_program):
        names = [c.name for c in bank_program.classes]
        assert names == ["Account", "AccountRegistry", "Person", "Main"]
        account = bank_program.classes[0]
        assert account.annotation == ast.Annotation.TRUSTED
        assert [f.name for f in account.fields] == ["owner", "balance"]
        ctor = account.method("Account")
        assert ctor.is_constructor
        main = bank_program.classes[3].method("main")
        assert main.is_static and main.return_type == ast.UNIT

    def test_field_visibility_defaults_private(self, bank_program):
        f = bank_program.classes[0].fields[0]
        assert f.visibility == ast.Visibility.PRIVATE

    def test_public_field_marker(self):
        prog = parse_program("""
@Neutral
class P {
    public x: Int;
    P() { this.x = 0; }
}
@Untrusted
class Main { static main() { var p: P = new P(); } }
""")
        assert prog.classes[0].fields[0].visibility == ast.Visibility.PUBLIC

    def test_precedence_mul_binds_tighter(self):
        (s,) = main_stmts(parse_one("        var x: Int = 1 + 2 * 3;"))
        e = s.init
        assert isinstance(e, ast.Binary) and e.op == "+"
        assert isinstance(e.right, ast.Binary) and e.right.op == "*"

    def test_unary_minus(self):
        (s,) = main_stmts(parse_one("        var x: Int = -4;"))
        assert isinstance(s.init, ast.Unary) and s.init.op == "-"

    def test_comparison_and_equality(self):
        (s,) = main_stmts(parse_one("        var b: Bool = 1 + 1 < 3;"))
        assert isinstance(s.init, ast.Binary) and s.init.op == "<"

    def test_list_type_and_literal(self):
        (s,) = main_stmts(parse_one("        var xs: List[Int] = [1, 2];"))
        assert s.declared_type == ast.list_of(ast.INT)
        assert isinstance(s.init, ast.ListLit) and len(s.init.elements) == 2

    def test_method_chaining(self):
        src = """
@Untrusted
class A {
    A() { }
    self() -> A { return this; }
    go() { }
}
@Untrusted
class Main {
    static main() {
        var a: A = new A();
        a.self().go();
    }
}
"""
        prog = parse_program(src)
        call = prog.classes[1].method("main").body[1].expr
        assert isinstance(call, ast.MethodCall) and call.method == "go"
        assert isinstance(call.receiver, ast.MethodCall)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program("@Untrusted\nclass Main {\n  static main() { var; }\n}")
        assert exc.value.kind == "syntax"
        assert exc.value.line == 3

    def test_integer_literal_range(self):
        (s,) = main_stmts(parse_one("        var x: Int = 9223372036854775807;"))
        assert s.init.value == 2**63 - 1
        (s,) = main_stmts(parse_one(f"        var x: Int = {'0' * 5000}7;"))
        assert s.init.value == 7
        for digits in ("9223372036854775808", "9" * 5000):
            with pytest.raises(ParseError) as exc:
                parse_one(f"        print({digits});")
            assert (exc.value.kind, exc.value.message) == \
                ("syntax", "integer literal out of 64-bit range")
            assert (exc.value.line, exc.value.col) == (5, 15)

    def test_unicode_digits(self):
        # Decimal digits of any script lex as one literal, as int() reads them;
        # other digits, such as superscripts, are no number.
        (s,) = main_stmts(parse_one("        var x: Int = \u0663\u0663;"))
        assert s.init.value == 33
        for literal in ("1\u00b2", "\u00b2"):
            with pytest.raises(ParseError) as exc:
                parse_one(f"        print({literal});")
            assert (exc.value.kind, exc.value.message) == \
                ("syntax", f"malformed number {literal!r}")
            assert (exc.value.line, exc.value.col) == (5, 15)

    def test_duplicate_class(self):
        src = """
@Neutral
class A { A() { } }
@Neutral
class A { A() { } }
@Untrusted
class Main { static main() { } }
"""
        with pytest.raises(ParseError) as exc:
            parse_program(src)
        assert exc.value.kind == "duplicate_class"

    def test_duplicate_method(self):
        src = """
@Untrusted
class Main {
    static main() { }
    go() { }
    go() { }
}
"""
        with pytest.raises(ParseError) as exc:
            parse_program(src)
        assert exc.value.kind == "duplicate_method"

    def test_duplicate_field(self):
        src = """
@Untrusted
class Main {
    x: Int;
    x: Str;
    static main() { }
}
"""
        with pytest.raises(ParseError) as exc:
            parse_program(src)
        assert exc.value.kind == "duplicate_field"

    def test_missing_main_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_program("@Neutral\nclass A { A() { } }")
        assert exc.value.kind == "no_main"

    def test_empty_source_rejected(self):
        with pytest.raises(ParseError):
            parse_program("")

    def test_annotation_required(self):
        with pytest.raises(ParseError):
            parse_program("class Main { static main() { } }")
