import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epart.bench import generate_corpus
from epart.cli import main
from epart.dsl import ast, parse_program
from epart.dsl.lexer import KEYWORDS, SYMBOLS, line_col, tokenize
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
        source = "class A {\n  x: Int;\n}"
        toks = tokenize(source)
        assert toks[0] == ("class", "class", 0)
        x = next(t for t in toks if t.text == "x")
        assert (x.kind, x.pos, line_col(source, x.pos)) == ("ident", 12, (2, 3))

    def test_comments_and_whitespace_skipped(self):
        toks = tokenize("# a comment\nclass # trailing\nA")
        assert [t.text for t in toks if t.text] == ["class", "A"]

    @pytest.mark.parametrize("source,expected", [
        ("z( \t\r", [("ident", "z", 0), ("(", "(", 1), ("eof", "", 5)]),
        ("x\n  ", [("ident", "x", 0), ("eof", "", 4)]),
    ])
    def test_trailing_blanks_belong_to_no_token(self, source, expected):
        assert tokenize(source) == expected

    def test_a_blank_run_is_scanned_once(self):
        # Trailing blanks, spaces and newlines alike, match as one run; were
        # each a fresh search start, these would take seconds.
        start = time.perf_counter()
        assert tokenize("x" + " " * 10_000 + "\n" * 10_000) == [
            ("ident", "x", 0), ("eof", "", 20_001)]
        assert time.perf_counter() - start < 1.0

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

    def test_a_static_member_takes_no_visibility_marker(self):
        with pytest.raises(ParseError) as exc:
            parse_program("@Untrusted\nclass Main {\n"
                          "    public static main() { }\n}\n")
        assert (exc.value.kind, exc.value.message) == \
            ("syntax", "visibility markers apply to fields only")
        assert (exc.value.line, exc.value.col) == (3, 12)

    def test_a_program_without_main_has_no_main_location(self):
        """The parser rejects such a program, so it is built here."""
        program = ast.Program([ast.ClassDecl("A", ast.Annotation.NEUTRAL,
                                             [], [])])
        with pytest.raises(LookupError, match="^program has no main$"):
            program.main_location()

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

    def test_a_quoted_annotation_exits_2_with_one_line(self, tmp_path, capsys):
        src = tmp_path / "quoted.ep"
        src.write_text('@"Untrusted" class Main { static main() { } }')
        assert main(["partition", str(src), "-o", str(tmp_path / "p")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "parse error: syntax at 1:2: expected Trusted, Untrusted "
            "or Neutral after '@', found '\"Untrusted\"'"]

    @pytest.mark.parametrize("decl,kind,message", [
        ("x: Int;\n    x: Str;\n    x: Bool;", "duplicate_field",
         "field x declared twice in Main"),
        ("f() { }\n    f() { }\n    f() { }", "duplicate_method",
         "method f declared twice in Main"),
        ("f(a: Int, a: Int, a: Int) { }", "duplicate_param",
         "parameter a declared twice"),
    ])
    def test_first_duplicate_is_reported(self, decl, kind, message):
        src = f"@Untrusted\nclass Main {{\n    {decl}\n    static main() {{ }}\n}}"
        with pytest.raises(ParseError) as exc:
            parse_program(src)
        e = exc.value
        second = {"duplicate_field": (4, 5), "duplicate_method": (4, 5),
                  "duplicate_param": (3, 15)}[kind]
        assert (e.kind, e.message, (e.line, e.col)) == (kind, message, second)

    @pytest.mark.parametrize("source,kind,message,line_col", [
        ("@Untrusted\nclass Main {\n    static main() { var print = 1; }\n}",
         "syntax", "'print' is a reserved builtin name", (3, 25)),
        ("@Neutral\nclass Int { }\n@Untrusted\nclass Main { static main() { } }",
         "syntax", "'Int' is a built-in type name", (2, 7)),
        ("@Untrusted\nclass Main {\n    static x: Int;\n    static main() { }\n}",
         "syntax", "fields cannot be static", (3, 12)),
        ("@Untrusted\nclass Main {\n    static Main() { }\n    static main() { }\n}",
         "syntax", "constructors cannot be static", (3, 12)),
        ("@Untrusted\nclass Main {\n    Main() -> Int { }\n    static main() { }\n}",
         "syntax", "constructors cannot declare a return type", (3, 12)),
        ("@Neutral\nclass A {\n    static main() { }\n}\n"
         "@Untrusted\nclass C {\n    static main() { }\n}",
         "multiple_main", "main declared again in class C", (7, 12)),
        ("@Untrusted\nclass Main {\n    static main() { var x = this.class; }\n}",
         "syntax", "'class' cannot follow '.'", (3, 34)),
        # The annotation is an identifier, not a string with its text.
        ('@"Untrusted" class Main { static main() { } }', "syntax",
         "expected Trusted, Untrusted or Neutral after '@', found '\"Untrusted\"'",
         (1, 2)),
        ("@", "syntax", "expected Trusted, Untrusted or Neutral after '@', "
         "found 'end of input'", (1, 2)),
        # A string token is shown as written; only eof is "end of input".
        ('@Untrusted\nclass Main {\n    static main() { var x: Int = 1 ""; }\n}',
         "syntax", "expected ';', found '\"\"'", (3, 36)),
        ('@Untrusted\nclass Main {\n    static main() { print(1 "a\\n"); }\n}',
         "syntax", "expected ',', found '\"a\\\\n\"'", (3, 29)),
        ("@Untrusted\nclass Main {\n    static main() { print(1",
         "syntax", "expected ',', found 'end of input'", (3, 28)),
    ])
    def test_declaration_diagnostics(self, source, kind, message, line_col):
        with pytest.raises(ParseError) as exc:
            parse_program(source)
        e = exc.value
        assert (e.kind, e.message, (e.line, e.col)) == (kind, message, line_col)


# A program that uses every statement and expression kind, and the offset of
# each of its token starts: cut there, the input ends in any parser state.
_PROGRAM = (Path(__file__).parent / "fixtures" / "every_node.ep").read_text(
    encoding="utf-8")
_CUTS = [t.pos for t in tokenize(_PROGRAM)]
_ATOMS = sorted(KEYWORDS) + SYMBOLS + [
    "Main", "x", "List", "Int", "Str", "print", "gc", "main", "0", "42",
    "9223372036854775808", '"s"', "@Untrusted", "@Neutral", " ", "\n",
    "\t", "# c\n"]


def _parses_or_raises_parse_error(source: str) -> None:
    try:
        program = parse_program(source)
    except ParseError:
        return
    assert isinstance(program, ast.Program)


def test_every_prefix_parses_or_raises_parse_error():
    for cut in _CUTS:
        _parses_or_raises_parse_error(_PROGRAM[:cut])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_CUTS), st.lists(st.sampled_from(_ATOMS), max_size=12))
def test_parse_returns_a_program_or_raises_parse_error(cut, atoms):
    """Never IndexError or any other exception, even at the end of input."""
    _parses_or_raises_parse_error(_PROGRAM[:cut] + " ".join(atoms))


def _token_edits(sources: list[str], count: int, seed: int) -> list[str]:
    """count sources, each one of sources with one token deleted, duplicated
    or swapped with the next, at a seeded place.  A token is cut out with the
    blanks and comments that follow it, so its neighbours stay apart."""
    rng = random.Random(seed)
    cuts = [[t.pos for t in tokenize(s)] for s in sources]
    out = []
    for _ in range(count):
        k = rng.randrange(len(sources))
        src, starts = sources[k], cuts[k] + [len(sources[k])]
        i = rng.randrange(len(starts) - 2)
        a, b, c = starts[i], starts[i + 1], starts[i + 2]
        op = rng.randrange(3)
        if op == 0:
            out.append(src[:a] + src[b:])
        elif op == 1:
            out.append(src[:b] + src[a:b] + src[b:])
        else:
            out.append(src[:a] + src[b:c] + src[a:b] + src[c:])
    return out


def test_token_edits_parse_or_raise_parse_error():
    """Never IndexError or any other exception when a token goes missing,
    comes twice or trades places."""
    fixtures = [p.read_text(encoding="utf-8")
                for p in sorted((Path(__file__).parent / "fixtures").glob("*.ep"))]
    sources = fixtures + generate_corpus(20, seed=3)
    for source in _token_edits(sources, 800, seed=5):
        _parses_or_raises_parse_error(source)
