"""Interpreter semantics, run the same way in all three execution modes.

Each case is a small program with the transcript it prints and the runtime
error it stops with (None when it completes).  Faults the validator rules
out statically (a non-Bool condition, a missing method) are reached by
editing the AST after the plans are built, as a tampered or hand-built
image would.  An unbound variable is reached that way too, and also from
valid source: the validator's scope of a method spans its nested blocks,
so a variable declared in a block that did not run can be read after it.
"""

import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epart.bench import generate_program
from epart.cli import main
from epart.dsl import ast, parse_program
from epart.errors import DslRuntimeError
from epart.partition import compute_images, whole_program_plan
from epart.runtime import DualRuntime
from epart.runtime import interp

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1


def main_of(body: str, classes: str = "") -> str:
    return (classes + "\n@Untrusted\nclass Main {\n    static main() {\n"
            + body + "\n    }\n}\n")


def methods_named(program, name):
    return [m for c in program.classes for m in c.methods if m.name == name]


def walk(node):
    """Every ast node reachable from node, itself included."""
    yield node
    for v in vars(node).values():
        for item in (v if isinstance(v, list) else [v]):
            if isinstance(item, (ast.Expr, ast.Stmt)):
                yield from walk(item)


def nodes_in(program, method, kind):
    return [n for m in methods_named(program, method) for s in m.body
            for n in walk(s) if n.__class__ is kind]


def mode_plans(program):
    """A partitioned, a reference and an enclave plan of program."""
    return [compute_images(program),
            whole_program_plan(program, enclave=False),
            whole_program_plan(program, enclave=True)]


def run_modes(source: str, mutate=None, **kwargs):
    """(transcript, fault message) of a partitioned, a reference and an
    enclave run."""
    program = parse_program(source)
    plans = mode_plans(program)
    if mutate is not None:
        mutate(program)
    out = []
    for plan in plans:
        rt = DualRuntime(plan, **kwargs)
        try:
            rt.run_main([])
            fault = None
        except DslRuntimeError as e:
            fault = e.message
        out.append((rt.result().transcript, fault))
    return out


def set_cond(program, kind, expr):
    for node in nodes_in(program, "main", kind):
        node.cond = expr


def rename_var(program, old, new, method="main"):
    for node in nodes_in(program, method, ast.Var):
        if node.name == old:
            node.name = new


def rename_method(program, old, new):
    for m in methods_named(program, old):
        m.name = new


BOX = """
@Neutral
class Box {
    v: Int;
    Box(v: Int) { this.v = v; }
    get() -> Int { return this.v; }
    twice(n: Int) -> Int { return n + this.v; }
}
@Neutral
class Util {
    static twice(n: Int) -> Int { return n * 2; }
}
@Untrusted
class Peer {
    Peer() { }
}
@Untrusted
class Late {
    p: Peer;
    Late() { }
    get() -> Peer { return this.p; }
}
"""

FLOW = """
@Neutral
class Flow {
    n: Int;
    Flow(n: Int) { this.n = n; }
    static first(limit: Int) -> Int {
        var i: Int = 0;
        if (limit > 0) {
            while (true) {
                i = i + 1;
                if (i * i > limit) {
                    print(i);
                    return i;
                }
                print(i * 10);
            }
            print(-1);
        }
        print(-2);
        return 0;
    }
    find(limit: Int) -> Int {
        var i: Int = this.n;
        if (limit > i) {
            while (i < limit) {
                if (i % 7 == 0) {
                    return i;
                    print(-3);
                }
                i = i + 1;
            }
            print(-4);
        } else {
            print(-5);
        }
        print(-6);
        return -1;
    }
    static count(k: Int) {
        var i: Int = 0;
        while (true) {
            i = i + 1;
            if (i > k) {
                return;
            }
            print(i);
        }
        print(-7);
    }
    static lost(k: Int) -> Int {
        var i: Int = k;
        while (i > 0) {
            i = i - 1;
            if (i == 100) {
                return i;
            }
        }
    }
}
"""

# Util gains the methods the unbound-variable cases call.
UNBOUND = BOX.replace("static twice", """static add(a: Int, b: Int) -> Int { return a + b; }
    static back(x: Int) -> Int { return x; }
    static twice""")


def unbound_case(body: str, method: str = "main"):
    """A case whose body reads x at one site that reads a bound Var inline.
    Renaming the reads of x in method to y leaves y unbound there, and the
    site must fault as eval_var does."""
    return (main_of("print(0);\n" + body, UNBOUND),
            lambda p: rename_var(p, "x", "y", method), ["0"], "unbound variable y")


CASES = {
    "int operators": (main_of("""
        var a: Int = 7;
        print(a + 3); print(a - 3); print(a * 3); print(a / 3); print(a % 3);
        print(a < 3); print(a <= 7); print(a > 3); print(a >= 8);
        print(a == 7); print(a != 7);
        print(-a);"""),
        None, ["10", "4", "21", "2", "1", "false", "true", "true", "false",
               "true", "false", "-7"], None),
    "bool and str operators": (main_of("""
        var t: Bool = true;
        print(t == false); print(t != false);
        var s: Str = "ab";
        print(s + "cd"); print(s + ""); print(s == "ab"); print(s != "ab");
        print("" == "");"""),
        None, ["false", "true", "abcd", "ab", "true", "false", "true"], None),
    "wrapping at 2^63": (main_of("""
        var max: Int = 9223372036854775807;
        var min: Int = -9223372036854775807 - 1;
        print(max + 1); print(min - 1); print(min + min); print(max * 2);
        print(4611686018427387904 * 2); print(min * -1); print(-min);
        print(max * max); print(min / -1); print(min % -1);"""),
        None, [str(I64_MIN), str(I64_MAX), "0", "-2", str(I64_MIN),
               str(I64_MIN), str(I64_MIN), "1", str(I64_MIN), "0"], None),
    "division truncates toward zero": (main_of("""
        print(7 / 2); print(-7 / 2); print(7 / -2); print(-7 / -2);
        print(7 % 2); print(-7 % 2); print(7 % -2); print(-7 % -2);
        print(6 / -3); print(-6 % 3);"""),
        None, ["3", "-3", "-3", "3", "1", "-1", "1", "-1", "-2", "0"], None),
    "division overflows only at MIN / -1": (main_of("""
        var max: Int = 9223372036854775807;
        var min: Int = -9223372036854775807 - 1;
        print(min / -1); print(min / 1); print(min / -2); print(max / -1);
        print(-max / -1); print(min / min); print(0 / -1);"""),
        None, [str(I64_MIN), str(I64_MIN), str(1 << 62), str(-I64_MAX),
               str(I64_MAX), "1", "0"], None),
    "division by zero": (main_of("""
        var z: Int = 0;
        print(1);
        print(7 / z);"""),
        None, ["1"], "division by zero"),
    "remainder by zero": (main_of("""
        var z: Int = 0;
        print(7 % z);"""),
        None, [], "division by zero"),
    "if condition is not a Bool": (main_of("""
        print(1);
        if (true) { print(2); }"""),
        lambda p: set_cond(p, ast.If, ast.IntLit(value=1)),
        ["1"], "condition is not a Bool"),
    "while condition is not a Bool": (main_of("""
        while (false) { print(2); }"""),
        lambda p: set_cond(p, ast.While, ast.StrLit(value="yes")),
        [], "condition is not a Bool"),
    "unbound variable": (main_of("""
        var x: Int = 1;
        print(x);"""),
        lambda p: rename_var(p, "x", "y"), [], "unbound variable y"),
    "unbound variable declared in a block that did not run": (main_of("""
        if (false) { var x: Int = 1; }
        print(x);"""),
        None, [], "unbound variable x"),
    "unbound variable as a binary left operand":
        unbound_case("var x: Int = 1; print(x + 1);"),
    "unbound variable as a binary right operand":
        unbound_case("var x: Int = 1; print(1 + x);"),
    "unbound variable as a binary left operand before a call":
        unbound_case("var x: Int = 1; print(x + Util.twice(1));"),
    "unbound variable as a call argument":
        unbound_case("var x: Int = 1; print(Util.twice(x));"),
    "unbound variable as a later call argument":
        unbound_case("var x: Int = 1; print(Util.add(2, x));"),
    "unbound variable as a call receiver":
        unbound_case("var x: Box = new Box(3); print(x.get());"),
    "unbound variable as a declaration value":
        unbound_case("var x: Int = 1; var z: Int = x; print(z);"),
    "unbound variable as an assignment value":
        unbound_case("var x: Int = 1; var z: Int = 0; z = x; print(z);"),
    "unbound variable as a return value":
        unbound_case("print(Util.back(4));", "back"),
    "compute of a negative unit count": (main_of("""
        compute(0);
        print(1);
        compute(-1);
        print(2);"""),
        None, ["1"], "compute of a negative unit count"),
    "field read before assignment": (main_of("""
        var l: Late = new Late();
        print(1);
        l.get();""", BOX),
        None, ["1"], "field Late.p read before assignment"),
    "a local shadows a class name": (main_of("""
        print(Util.twice(5));
        var Util: Box = new Box(100);
        print(Util.twice(5));""", BOX),
        None, ["10", "105"], None),
    "missing method on an instance": (main_of("""
        var b: Box = new Box(3);
        print(b.twice(1));
        print(b.get());""", BOX),
        lambda p: rename_method(p, "get", "got"),
        ["4"], "Box has no method get"),
    "missing static method": (main_of("""
        print(1);
        print(Util.twice(2));""", BOX),
        lambda p: rename_method(p, "twice", "thrice"),
        ["1"], "Util has no method twice"),
    "list get out of range": (main_of("""
        var xs: List[Int] = [4, 5];
        xs.append(6);
        print(xs.len()); print(xs.get(2));
        print(xs.get(3));"""),
        None, ["3", "6"], "list index 3 out of range for length 3"),
    "negative list index": (main_of("""
        var xs: List[Str] = ["a"];
        print(xs.get(-1));"""),
        None, [], "list index -1 out of range for length 1"),
    "early return from a while in an if, static method": (main_of("""
        print(Flow.first(10));
        print(Flow.first(0));""", FLOW),
        None, ["10", "20", "30", "4", "4", "-2", "0"], None),
    "early return from a while in an if, instance method": (main_of("""
        var f: Flow = new Flow(8);
        print(f.find(30));
        print(f.find(10));
        print(f.find(3));""", FLOW),
        None, ["14", "-4", "-6", "-1", "-5", "-6", "-1"], None),
    "return; in a loop of a Unit method": (main_of("""
        Flow.count(2);
        Flow.count(0);
        print(9);""", FLOW),
        None, ["1", "2", "9"], None),
    # The validator has no return-path rule, so this program is valid.
    "a loop ends without return": (main_of("""
        print(Flow.lost(1000));
        print(Flow.lost(3));
        print(8);""", FLOW),
        None, ["100"], "Flow.lost finished without returning a value"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_semantics_in_all_modes(name):
    source, mutate, transcript, fault = CASES[name]
    assert run_modes(source, mutate) == [(transcript, fault)] * 3


def test_every_node_kind_has_a_handler():
    def concrete(base):
        out = set()
        for sub in base.__subclasses__():
            out |= {sub} | concrete(sub)
        return out

    assert set(interp._EVAL) == concrete(ast.Expr)
    assert set(interp._EXEC) == concrete(ast.Stmt)


def test_arguments_stay_rooted_across_a_collection():
    # f() collects while the Box built for g's first argument is held only
    # by the caller's evaluation temporaries.  In the partitioned run the Box
    # is a proxy: had the collection swept it, the scan would have dropped
    # its mirror and get() would fail with a stale hash.
    source = """
@Trusted
class Box {
    v: Int;
    Box(v: Int) { this.v = v; }
    get() -> Int { return this.v; }
}
@Neutral
class Util {
    static f() -> Int { gc(); return 2; }
    static g(b: Box, n: Int) -> Int { return b.get() + n; }
}
@Untrusted
class Main {
    static main() {
        print(Util.g(new Box(1), Util.f()));
        print(Util.g(new Box(1), Util.f() + Util.f()));
    }
}
"""
    assert run_modes(source, gc_threshold=1) == [(["3", "5"], None)] * 3


def test_a_local_argument_stays_rooted_across_a_collection():
    # A local passed as an argument is read straight from the frame's
    # bindings and not parked in its temporaries; the bindings root it
    # while a later argument collects.
    source = """
@Trusted
class Box {
    v: Int;
    Box(v: Int) { this.v = v; }
    get() -> Int { return this.v; }
}
@Neutral
class Util {
    static f() -> Int { gc(); return 2; }
    static g(b: Box, n: Int) -> Int { return b.get() + n; }
    static h(b: Box, c: Box, n: Int) -> Int { return b.get() + c.get() + n; }
}
@Untrusted
class Main {
    static main() {
        var b: Box = new Box(1);
        print(Util.g(b, Util.f()));
        print(Util.h(b, new Box(4), Util.f() + Util.f()));
        print(b.get() + Util.f());
    }
}
"""
    for threshold in (1, 64):
        assert run_modes(source, gc_threshold=threshold) == \
            [(["3", "9", "3"], None)] * 3


def test_missing_return_traces_every_frame():
    program = parse_program(main_of("print(Flow.lost(3));", FLOW))
    for plan in mode_plans(program):
        with pytest.raises(DslRuntimeError) as info:
            DualRuntime(plan).run_main([])
        assert info.value.formatted().splitlines() == [
            "runtime error: Flow.lost finished without returning a value",
            "  at Flow.lost", "  at Main.main"]


POOL = """
@Trusted
class Pool {
    Pool() { }
    fill(k: Int) -> Box {
        var xs: List[Box] = [];
        var i: Int = 0;
        while (true) {
            var b: Box = new Box(i);
            xs.append(b);
            i = i + 1;
            if (i == k) {
                return new Box(xs.len() + b.get());
            }
        }
    }
}
"""


def test_return_in_a_loop_at_every_safepoint():
    # At gc_threshold=1 every safepoint that follows an allocation collects,
    # so a safepoint added or lost on a return path moves these counts.
    program = parse_program(main_of("""
        var p: Pool = new Pool();
        print(p.fill(5).get());
        print(p.fill(40).get());""", BOX + POOL))
    got = []
    for plan in mode_plans(program):
        res = DualRuntime(plan, gc_threshold=1).run_main([])
        got.append((res.transcript,
                    {side: (m.gc_runs, m.gc_cycles, m.simulated_cycles)
                     for side, m in res.metrics.items()}))
    assert got == [
        (["9", "79"], {"trusted": (94, 462208, 465156),
                       "untrusted": (3, 240, 39644)}),
        (["9", "79"], {"untrusted": (95, 115584, 116280)}),
        (["9", "79"], {"trusted": (95, 462336, 491385),
                       "untrusted": (0, 0, 0)}),
    ]


def test_a_negative_compute_is_one_line_at_the_cli(tmp_path, capsys):
    src = tmp_path / "negative.ep"
    src.write_text(main_of("print(1); compute(-1);"))
    assert main(["run-unpartitioned", str(src)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["1"]
    assert err.splitlines() == [
        "runtime error: compute of a negative unit count", "  at Main.main"]


# -- the Str length bound ------------------------------------------------------

# Seed-2 progen programs that grow a string geometrically; without the bound
# they need more than 7 GB.
RUNAWAY_STR = [generate_program(2 * 10007 + i) for i in (162, 188)]


@pytest.mark.parametrize("source", RUNAWAY_STR, ids=["162", "188"])
def test_a_runaway_string_faults_in_every_mode(source):
    assert interp.MAX_STR_CHARS == 16 << 20
    for plan in mode_plans(parse_program(source)):
        start = time.perf_counter()
        with pytest.raises(DslRuntimeError) as info:
            DualRuntime(plan).run_main([])
        assert time.perf_counter() - start < 1.0
        assert info.value.formatted().splitlines()[0] == \
            "runtime error: string longer than 16 MiB"


@pytest.mark.parametrize("source", RUNAWAY_STR, ids=["162", "188"])
def test_a_runaway_string_is_one_line_at_the_cli(source, tmp_path, capsys):
    src = tmp_path / "runaway.ep"
    src.write_text(source)
    start = time.perf_counter()
    assert main(["compare", str(src)]) == 0
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert out.startswith("PASS: ")
    assert "both runs stop with: runtime error: string longer than 16 MiB" \
        in out.splitlines()
    assert main(["partition", str(src), "-o", str(tmp_path / "plan")]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "epart.cli", "run", str(tmp_path / "plan")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "runtime error: string longer than 16 MiB", "  at Main.main"]


# -- random Int expressions against a plain-Python oracle --------------------

def wrap(v: int) -> int:
    return (v - I64_MIN) % (1 << 64) + I64_MIN


def oracle(tree, env):
    """The i64 value of tree; ZeroDivisionError for a zero divisor."""
    if isinstance(tree, int):
        return tree
    if isinstance(tree, str):
        return env[tree]
    if tree[0] == "neg":
        return wrap(-oracle(tree[1], env))
    op, left, right = tree
    a, b = oracle(left, env), oracle(right, env)
    if op == "+":
        return wrap(a + b)
    if op == "-":
        return wrap(a - b)
    if op == "*":
        return wrap(a * b)
    if b == 0:
        raise ZeroDivisionError
    q = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
    return wrap(q) if op == "/" else wrap(a - q * b)


def render(tree) -> str:
    if isinstance(tree, (int, str)):
        return str(tree)
    if tree[0] == "neg":
        return f"-({render(tree[1])})"
    op, left, right = tree
    return f"({render(left)} {op} {render(right)})"


LEAF = st.one_of(st.integers(0, I64_MAX), st.integers(0, 9),
                 st.sampled_from(["a", "b", "c"]))
TREES = st.recursive(
    LEAF,
    lambda sub: st.one_of(
        st.tuples(st.just("neg"), sub),
        st.tuples(st.sampled_from(["+", "-", "*", "/", "%"]), sub, sub)),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(TREES, st.lists(st.integers(I64_MIN, I64_MAX), min_size=3, max_size=3))
def test_int_expressions_match_the_oracle(tree, values):
    env = dict(zip("abc", values))
    decls = "".join(f"var {k}: Int = {v};\n" if v >= 0 else
                    f"var {k}: Int = -{-v - 1} - 1;\n" for k, v in env.items())
    source = main_of(decls + f"print({render(tree)});")
    program = parse_program(source)
    rt = DualRuntime(whole_program_plan(program, enclave=False))
    try:
        expected = [str(oracle(tree, env))]
    except ZeroDivisionError:
        with pytest.raises(DslRuntimeError, match="division by zero"):
            rt.run_main([])
    else:
        assert rt.run_main([]).transcript == expected
