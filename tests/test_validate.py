import inspect
from dataclasses import replace

import pytest

from epart.dsl import analyze_calls, assignable, ast, parse_program, validate
from epart.dsl.ast import ClassDecl
from epart.dsl.validate import _CHECK, _INFER, resolve
from epart.errors import ValidationFailed
from epart.partition import compute_images
from epart.runtime import run_reference, run_unpartitioned


def check(source: str) -> set[str]:
    return validate(parse_program(source)).rules()


WRAP = """
@Untrusted
class Main {{
    static main() {{
{body}
    }}
}}
"""


def check_main(body: str, extra: str = "") -> set[str]:
    return check(extra + WRAP.format(body=body))


class TestPlacement:
    def test_bank_is_clean(self, bank_program):
        assert validate(bank_program).ok

    def test_main_in_trusted_class(self):
        rules = check("@Trusted\nclass Main { static main() { } }")
        assert "MAIN_PLACEMENT" in rules
        # Built from constructors, with no source: no position, shown as 0:0.
        main = ast.MethodDecl("main", [], ast.UNIT, [], is_static=True)
        built = ast.Program([ClassDecl("Main", ast.Annotation.TRUSTED, [], [main])])
        assert [str(v) for v in validate(built).violations] == [
            "MAIN_PLACEMENT Main.main 0:0: main cannot live in a trusted class"]

    def test_main_in_neutral_class_ok(self):
        assert check("@Neutral\nclass Main { static main() { } }") == set()

    def test_main_must_be_static(self):
        rules = check("@Untrusted\nclass Main { main() { } }")
        assert "MAIN_SIGNATURE" in rules

    def test_main_param_list_str_ok(self):
        src = """
@Untrusted
class Main {
    static main(args: List[Str]) {
        print(args.len());
    }
}
"""
        assert check(src) == set()

    def test_main_bad_params(self):
        rules = check("@Untrusted\nclass Main { static main(n: Int) { } }")
        assert "MAIN_SIGNATURE" in rules

    def test_static_on_annotated_class(self):
        src = """
@Trusted
class T {
    T() { }
    static helper() { }
}
@Untrusted
class Main { static main() { } }
"""
        assert "STATIC_PLACEMENT" in check(src)

    def test_static_on_neutral_class_ok(self):
        src = """
@Neutral
class N {
    N() { }
    static helper() { }
}
@Untrusted
class Main { static main() { N.helper(); } }
"""
        assert check(src) == set()

    def test_static_call_through_annotated_class(self):
        src = """
@Trusted
class T {
    T() { }
    static helper() { }
}
@Untrusted
class Main { static main() { T.helper(); } }
"""
        assert "STATIC_PLACEMENT" in check(src)


class TestEncapsulation:
    def test_public_field_on_annotated(self):
        src = """
@Trusted
class T {
    public x: Int;
    T() { this.x = 0; }
}
@Untrusted
class Main { static main() { } }
"""
        assert "ENCAPSULATION" in check(src)

    def test_public_field_on_neutral_ok(self):
        src = """
@Neutral
class N {
    public x: Int;
    N() { this.x = 0; }
}
@Untrusted
class Main { static main() { } }
"""
        assert check(src) == set()

    def test_cross_object_field_access(self):
        src = """
@Neutral
class P {
    x: Int;
    P() { this.x = 1; }
}
@Untrusted
class Main {
    static main() {
        var p: P = new P();
        print(p.x);
    }
}
"""
        assert "FIELD_ACCESS" in check(src)

    def test_this_field_access_ok(self, bank_program):
        assert validate(bank_program).ok


class TestTypes:
    def test_unknown_type(self):
        assert "TYPE_RESOLVE" in check_main("        var x: Missing = 1;")

    def test_unknown_variable(self):
        assert "TYPE_RESOLVE" in check_main("        print(nope);")

    def test_unknown_method(self):
        extra = "@Neutral\nclass P { P() { } }\n"
        body = "        var p: P = new P();\n        p.nope();"
        assert "TYPE_RESOLVE" in check_main(body, extra)

    def test_int_plus_str_rejected(self):
        assert "TYPE_ERROR" in check_main('        var x: Int = 1 + "a";')

    def test_str_concat_ok(self):
        assert check_main('        var s: Str = "a" + "b";') == set()

    def test_condition_must_be_bool(self):
        assert "TYPE_ERROR" in check_main("        if (1) { }")

    def test_while_condition_must_be_bool(self):
        assert "TYPE_ERROR" in check_main('        while ("x") { }')

    def test_unary_minus_needs_int(self):
        assert "TYPE_ERROR" in check_main("        var x: Int = -true;")

    def test_equality_needs_same_prim(self):
        assert "TYPE_ERROR" in check_main('        var b: Bool = 1 == "a";')

    def test_assignment_type_mismatch(self):
        body = "        var x: Int = 1;\n        x = true;"
        assert "TYPE_ERROR" in check_main(body)

    def test_a_list_of_no_element_type_takes_only_the_empty_literal(self):
        """No source declares such a slot (`List` needs its element type),
        but assignable answers for any TypeRef."""
        untyped = ast.TypeRef("List")
        assert assignable(untyped, untyped)
        assert not assignable(ast.TypeRef("List", ast.INT), untyped)

    def test_return_type_mismatch(self):
        src = """
@Untrusted
class Main {
    static main() { }
    f() -> Int { return "s"; }
}
"""
        assert "TYPE_ERROR" in check(src)

    def test_missing_return_value(self):
        src = """
@Untrusted
class Main {
    static main() { }
    f() -> Int { return; }
}
"""
        assert "TYPE_ERROR" in check(src)

    def test_call_arity_checked(self):
        extra = "@Neutral\nclass P { P() { } go(n: Int) { } }\n"
        body = "        var p: P = new P();\n        p.go();"
        assert "TYPE_ERROR" in check_main(body, extra)

    def test_ctor_arg_type_checked(self):
        extra = "@Neutral\nclass P { P(n: Int) { } }\n"
        assert "TYPE_ERROR" in check_main('        var p: P = new P("s");', extra)

    def test_list_ops(self):
        body = ("        var xs: List[Int] = [];\n"
                "        xs.append(1);\n"
                "        print(xs.get(0));\n"
                "        print(xs.len());")
        assert check_main(body) == set()

    def test_list_append_type_checked(self):
        body = '        var xs: List[Int] = [];\n        xs.append("s");'
        assert "TYPE_ERROR" in check_main(body)

    def test_builtin_arg_types(self):
        assert "TYPE_ERROR" in check_main("        file_write(1, 2);")
        assert "TYPE_ERROR" in check_main("        compute(true);")
        assert check_main("        compute(5);") == set()
        assert check_main("        gc();") == set()


# Every checker diagnostic that the tests above do not reach, with its exact
# text; the neutral P and the field x give the cases something to call.
DIAGNOSTIC = """
@Neutral
class P {{
    P() {{ }}
    go() {{ }}
    static helper() {{ }}
}}
@Untrusted
class Main {{
    x: Int;
{members}
    static main() {{
{body}
    }}
}}
"""


def diag(members: str, body: str) -> str:
    return DIAGNOSTIC.format(members=members, body="        " + body)


DIAGNOSTICS = {
    "main returns a value": (
        "@Untrusted\nclass Main { static main() -> Int { return 1; } }",
        ["MAIN_SIGNATURE Main.main 2:21: main returns unit"]),
    "Unit is not a value type": (
        diag("", "var u: Unit = 1;"),
        ["TYPE_ERROR Main.main 13:9: Unit is not a value type"]),
    "variable already declared": (
        diag("", "var x: Int = 1; var x: Int = 2;"),
        ["TYPE_ERROR Main.main 13:25: variable x already declared"]),
    "empty list without a declared type": (
        diag("", "var xs = [];"),
        ["TYPE_ERROR Main.main 13:9: empty list needs a declared list type"]),
    "constructor returns a value": (
        diag("    Main() { return 1; }", ""),
        ["TYPE_ERROR Main.Main 11:14: constructors cannot return a value"]),
    "unit method returns a value": (
        diag("    f() { return 1; }", ""),
        ["TYPE_ERROR Main.f 11:11: unit method cannot return a value"]),
    "this in a static method": (
        diag("", "var m: Main = this;"),
        ["TYPE_ERROR Main.main 13:23: no this in a static method"]),
    "a field of this in a static method": (
        diag("", "this.x = 1; print(this.x);"),
        ["TYPE_ERROR Main.main 13:13: no this in a static method",
         "TYPE_ERROR Main.main 13:31: no this in a static method"]),
    "list elements disagree": (
        diag("", "var xs: List[Int] = [nope, 1, true];"),
        ["TYPE_RESOLVE Main.main 13:30: unknown variable nope",
         "TYPE_ERROR Main.main 13:39: list elements disagree: Int vs Bool"]),
    "'-' on a Str": (
        diag("", 'var n: Int = 1 - "a";'),
        ["TYPE_ERROR Main.main 13:24: '-' needs Int operands, got Int and Str"]),
    "instance method called statically": (
        diag("", "P.go();"),
        ["TYPE_ERROR Main.main 13:10: P.go is not static"]),
    "static method called on an instance": (
        diag("", "var p: P = new P(); p.helper();"),
        ["TYPE_ERROR Main.main 13:30: static P.helper called on an instance"]),
    "constructor called as a method": (
        diag("", "var p: P = new P(); p.P();"),
        ["TYPE_ERROR Main.main 13:30: constructors are invoked with new"]),
    "len with an argument": (
        diag("", "var xs: List[Int] = []; print(xs.len(1));"),
        ["TYPE_ERROR Main.main 13:41: len takes no arguments"]),
    "get without an index": (
        diag("", "var xs: List[Int] = []; print(xs.get());"),
        ["TYPE_ERROR Main.main 13:41: get takes one Int index"]),
    "get with a Bool index": (
        diag("", "var xs: List[Int] = []; print(xs.get(true));"),
        ["TYPE_ERROR Main.main 13:41: get index must be Int"]),
    "get from an empty literal": (
        diag("", "print([].get(0));"),
        ["TYPE_ERROR Main.main 13:17: cannot get from a list of unknown element type"]),
    "append without a value": (
        diag("", "var xs: List[Int] = []; xs.append();"),
        ["TYPE_ERROR Main.main 13:35: append takes one value"]),
    "builtin arity": (
        diag("", "gc(1); file_read();"),
        ["TYPE_ERROR Main.main 13:9: gc takes 0 argument(s)",
         "TYPE_ERROR Main.main 13:16: file_read takes 1 argument(s)"]),
    "List[Int] to List[Bool]": (
        diag("", "var xs: List[Int] = [1]; var ys: List[Bool] = xs;"),
        ["TYPE_ERROR Main.main 13:34: cannot assign List[Int] to List[Bool]"]),
    "a list to an undeclared empty list": (
        diag("", "var xs = []; xs = [1];"),
        ["TYPE_ERROR Main.main 13:9: empty list needs a declared list type"]),
    "a local whose declaration did not type": (
        diag("", "var x = nope; var s: Str = x; x = 1; print(x + 1);"),
        ["TYPE_RESOLVE Main.main 13:17: unknown variable nope"]),
}


@pytest.mark.parametrize("name", list(DIAGNOSTICS))
def test_diagnostic_text(name):
    source, expected = DIAGNOSTICS[name]
    assert [str(v) for v in validate(parse_program(source)).violations] \
        == expected


class TestCallAnalysis:
    def test_resolved_targets(self, bank_program):
        calls = analyze_calls(bank_program)
        main_calls = calls[("Main", "main")]
        assert ("Person", "Person") in main_calls
        assert ("AccountRegistry", "addAccount") in main_calls
        transfer = calls[("Person", "transfer")]
        assert ("Person", "getAccount") in transfer
        assert ("Account", "updateBalance") in transfer


class TestLookupTables:
    SRC = """
@Neutral
class Cell {
    v: Int;
    Cell() { this.v = 1; }
    get() -> Int { return this.v; }
}
@Untrusted
class Main {
    static main() {
        var c: Cell = new Cell();
        var x: Int = c.get();
        var y: Bool = c.get();
        c.nope();
        var d: Cell = new Missing();
    }
}
"""

    def test_members_resolve_without_scanning_the_class(self, monkeypatch):
        program = parse_program(self.SRC)
        expected = [str(v) for v in validate(program).violations]
        assert len(expected) == 3

        def scan(self, name):
            raise AssertionError(f"linear method scan for {name}")

        monkeypatch.setattr(ClassDecl, "method", scan)
        # A fresh program: the first one's walk is kept and not run again.
        assert [str(v) for v in validate(parse_program(self.SRC)).violations] \
            == expected

    def test_first_declaration_of_a_name_wins(self):
        program = parse_program(self.SRC)
        cell = program.classes[0]
        get = cell.methods[-1]
        cell.methods.append(replace(get, return_type=ast.BOOL))
        cell.fields.append(replace(cell.fields[0], type=ast.STR))
        # The copies are checked as methods and fields of their own, but
        # c.get() and this.v still resolve to the first declarations.
        assert [str(v) for v in validate(program).violations] == [
            "TYPE_ERROR Cell.get 6:20: cannot return Int from a Bool method",
            "TYPE_ERROR Main.main 13:9: cannot assign Int to Bool",
            "TYPE_RESOLVE Main.main 14:10: class Cell has no method nope",
            "TYPE_RESOLVE Main.main 15:23: unknown class Missing",
        ]

    def test_every_node_kind_has_a_handler(self):
        def concrete(base):
            out = set()
            for sub in base.__subclasses__():
                out |= {sub} | concrete(sub)
            return out

        assert set(_INFER) == concrete(ast.Expr)
        assert set(_CHECK) == concrete(ast.Stmt)
        # The walker holds the class, method and locals; a handler takes
        # only its node.
        for handler in [*_CHECK.values(), *_INFER.values()]:
            assert len(inspect.signature(handler).parameters) == 2, \
                handler.__name__


class TestOneWalkPerProgram:
    """The checker walks a Program once; every consumer reuses that walk."""

    def test_one_walk_across_every_consumer(self, bank_source, checker_runs):
        program = parse_program(bank_source)
        assert validate(program).ok
        compute_images(program)
        run_reference(program)
        run_unpartitioned(program)
        analyze_calls(program)
        assert len(checker_runs) == 1
        # A second program is a second walk, and the kept one changes
        # nothing a consumer sees.
        other = parse_program(bank_source)
        assert compute_images(other) == compute_images(program)
        assert resolve(other) == resolve(program)
        assert len(checker_runs) == 2

    def test_callers_get_their_own_copies(self):
        program = parse_program(TestLookupTables.SRC)
        report, calls = resolve(program)
        violations = list(report.violations)
        expected_calls = {k: list(v) for k, v in calls.items()}
        assert violations and calls[("Main", "main")]

        validate(program).violations.append(violations[0])
        report.violations.clear()
        calls[("Main", "main")].append(("Cell", "nope"))
        calls[("Main", "extra")] = []
        again, calls_again = resolve(program)
        assert again.violations == violations
        assert validate(program).violations == violations
        assert calls_again == expected_calls

        valid = parse_program(WRAP.format(body="        print(1);"))
        analyze_calls(valid)[("Main", "main")].append(("Main", "main"))
        assert analyze_calls(valid) == {("Main", "main"): []}

    def test_invalid_program_fails_every_consumer_alike(self, checker_runs):
        program = parse_program(TestLookupTables.SRC)
        expected = [str(v) for v in validate(program).violations]
        assert len(expected) == 3
        for consumer in (compute_images, run_reference, run_unpartitioned):
            with pytest.raises(ValidationFailed) as info:
                consumer(program)
            assert [str(v) for v in info.value.report.violations] == expected
        assert len(checker_runs) == 1
