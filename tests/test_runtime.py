import dataclasses
import gc
import hashlib
import json
import re
import weakref
from pathlib import Path

import pytest

from epart.bench import SyntheticSpec, generate_program, generate_synthetic
from epart.dsl import parse_program
from epart.dsl.ast import ListLit, StrLit
from epart.errors import (
    DslRuntimeError, EpartError, InterfaceMismatch, MarshalError, StaleMirror,
    TransitionOverflow, ValidationFailed,
)
from epart.partition import compute_images, whole_program_plan
from epart.runtime import (
    MAX_TRANSITION_DEPTH, DualRuntime, run_main, run_reference,
    run_unpartitioned,
)
from epart.runtime.costmodel import CostModel
from epart.runtime.heap import TRUSTED, UNTRUSTED, InstanceObj, ProxyObj

from test_boundary import SRC as BOUNDARY_SRC
from test_partition import named


def plan_of(source: str):
    return compute_images(parse_program(source))


def run_dual(source: str, argv=None, **kwargs):
    return DualRuntime(plan_of(source), **kwargs).run_main(argv)


class TestBankExecution:
    def test_counters(self, bank_plan):
        res = DualRuntime(bank_plan).run_main()
        assert res.transcript == []
        assert res.vfs == {}
        u = res.metrics[UNTRUSTED]
        t = res.metrics[TRUSTED]
        assert (u.ecalls, u.ocalls, res.shim_ocalls) == (6, 0, 0)
        assert (t.ecalls, t.ocalls) == (0, 0)
        assert u.bytes_serialized == 67
        assert t.bytes_serialized == 0
        assert u.allocations == 5   # 2 Persons + 3 proxies
        assert t.allocations == 5   # 3 Accounts + registry + its list
        assert t.mirror_registry_size == 3
        assert u.live_proxies == 3
        assert res.total_cycles == 79287

    def test_cycles_by_source(self, bank_plan):
        res = DualRuntime(bank_plan).run_main()
        assert res.cycles_by_source[TRUSTED] == {"alloc": 200, "field": 88}
        assert res.cycles_by_source[UNTRUSTED] == {
            "alloc": 50, "field": 14, "transition": 78600, "serialize": 335}

    def test_balances_live_in_trusted_mirrors(self, bank_plan):
        rt = DualRuntime(bank_plan)
        rt.run_main()
        balances = {}
        for obj in rt.isolates[TRUSTED].registry.values():
            if isinstance(obj, InstanceObj) and obj.decl.name == "Account":
                balances[obj.values["owner"]] = obj.values["balance"]
        assert balances == {"Alice": 75, "Bob": 50}

    def test_trace(self, bank_plan):
        res = DualRuntime(bank_plan, trace=True).run_main()
        assert len(res.trace) == 6
        assert all(ev.direction == "ecall" for ev in res.trace)
        assert res.trace[0].line() == (
            "1 ECALL ctor Account.Account "
            "hash=0x8000000000000001 bytes=19 cycles=13100")
        assert [ev.qualname for ev in res.trace] == [
            "Account.Account", "Account.Account", "Account.updateBalance",
            "Account.updateBalance", "AccountRegistry.AccountRegistry",
            "AccountRegistry.addAccount",
        ]

    def test_matches_reference(self, bank_program, bank_plan):
        dual = DualRuntime(bank_plan).run_main()
        ref = run_reference(bank_program)
        assert dual.transcript == ref.transcript
        assert dual.vfs == ref.vfs
        assert ref.total("ecalls") == 0
        assert ref.shim_ocalls == 0


class TestProxyLifecycle:
    REUSE_SRC = """
@Trusted
class Gem {
    Gem() { }
}
@Trusted
class Store {
    item: Gem;
    Store() { }
    put(g: Gem) { this.item = g; }
    fetch() -> Gem { return this.item; }
}
@Untrusted
class Main {
    static main() {
        var g: Gem = new Gem();
        var s: Store = new Store();
        s.put(g);
        s.fetch();
    }
}
"""

    def test_construct_through_proxy(self, bank_plan):
        rt = DualRuntime(bank_plan)
        acct = rt.construct(UNTRUSTED, "Account", ["X", 5])
        assert isinstance(acct, ProxyObj)
        assert acct.hash_value == 0x8000000000000001
        assert rt.registry_hashes(TRUSTED) == {acct.hash_value}
        assert rt.live_proxy_hashes(UNTRUSTED) == {acct.hash_value}

    def test_return_path_reuses_live_proxy(self):
        rt = DualRuntime(plan_of(self.REUSE_SRC))
        gem = rt.construct(UNTRUSTED, "Gem", [])
        store = rt.construct(UNTRUSTED, "Store", [])
        rt.call(UNTRUSTED, store, "put", [gem])
        back = rt.call(UNTRUSTED, store, "fetch", [])
        assert back is gem
        assert rt.live_proxy_hashes(UNTRUSTED) == \
            {gem.hash_value, store.hash_value}

    def test_stale_mirror_after_collection(self, bank_plan):
        rt = DualRuntime(bank_plan)
        acct = rt.construct(UNTRUSTED, "Account", ["X", 5])
        rt.clear_pins(UNTRUSTED)
        rt.force_gc(UNTRUSTED, scan=True)
        assert rt.registry_hashes(TRUSTED) == set()
        assert rt.remove_calls == 1
        with pytest.raises(StaleMirror) as exc:
            rt.call(UNTRUSTED, acct, "updateBalance", [1])
        assert exc.value.hash_value == acct.hash_value

    def test_pinned_proxy_survives_collection(self, bank_plan):
        rt = DualRuntime(bank_plan)
        acct = rt.construct(UNTRUSTED, "Account", ["X", 5])
        rt.force_gc(UNTRUSTED, scan=True)
        assert rt.registry_hashes(TRUSTED) == {acct.hash_value}
        rt.call(UNTRUSTED, acct, "updateBalance", [1])


class TestCopyDivergence:
    SRC = """
@Neutral
class Box {
    v: Int;
    Box() { this.v = 1; }
    add(n: Int) { this.v = this.v + n; }
    get() -> Int { return this.v; }
}
@Trusted
class Vault {
    Vault() { }
    bump(b: Box) { b.add(10); }
}
@Untrusted
class Main {
    static main() {
        var b: Box = new Box();
        var t: Vault = new Vault();
        t.bump(b);
        print(b.get());
    }
}
"""

    def test_neutral_argument_is_copied_across_boundary(self):
        # the trusted side mutates its own copy; the caller's original
        # is untouched, unlike the shared-heap reference semantics
        assert run_dual(self.SRC).transcript == ["1"]
        assert run_reference(parse_program(self.SRC)).transcript == ["11"]

    def test_neutral_sharing_preserved_within_one_side(self):
        src = self.SRC.replace("t.bump(b);", "b.add(10);")
        assert run_dual(src).transcript == ["11"]


class TestTransitions:
    PING_PONG = """
@Trusted
class T {
    T() { }
    ping(u: U, n: Int) {
        if (n > 0) { u.pong(this, n - 1); }
    }
}
@Untrusted
class U {
    U() { }
    pong(t: T, n: Int) {
        if (n > 0) { t.ping(this, n - 1); }
    }
}
@Untrusted
class Main {
    static main() {
        var t: T = new T();
        var u: U = new U();
        t.ping(u, %d);
    }
}
"""

    def test_depth_limit(self):
        assert MAX_TRANSITION_DEPTH == 256
        with pytest.raises(TransitionOverflow, match="entering T.ping"):
            run_dual(self.PING_PONG % 600)

    def test_bounded_ping_pong(self):
        res = run_dual(self.PING_PONG % 100)
        assert res.metrics[UNTRUSTED].ecalls == 52  # 2 ctors + 50 pings
        assert res.metrics[TRUSTED].ocalls == 50

    def test_error_trace_crosses_boundary(self):
        src = """
@Trusted
class Calc {
    Calc() { }
    div(a: Int, b: Int) -> Int { return a / b; }
}
@Untrusted
class Caller {
    Caller() { }
    go(c: Calc) -> Int { return c.div(10, 0); }
}
@Untrusted
class Main {
    static main() {
        var c: Calc = new Calc();
        var k: Caller = new Caller();
        print(k.go(c));
    }
}
"""
        with pytest.raises(DslRuntimeError) as exc:
            run_dual(src)
        assert exc.value.formatted() == (
            "runtime error: division by zero\n"
            "  at Calc.div\n"
            "  -- ecall boundary Calc.div --\n"
            "  at Caller.go\n"
            "  at Main.main")


class TestSemantics:
    SEM_SRC = """
@Untrusted
class Main {
    static main(args: List[Str]) {
        print(9223372036854775807 + 1);
        print(-7 / 2);
        print(7 / -2);
        print(-7 % 2);
        print(7 % -2);
        print(args.len());
        print(args.get(1));
        var xs: List[Int] = [];
        xs.append(4);
        xs.append(5);
        print(xs.len());
        print(xs.get(0) * xs.get(1));
        var s: Str = "ab" + "cd";
        print(s);
        print(s == "abcd");
        print(true);
    }
}
"""

    def test_int64_and_list_and_str(self):
        res = run_dual(self.SEM_SRC, argv=["prog", "hello"])
        assert res.transcript == [
            "-9223372036854775808",  # wraparound at 2**63
            "-3", "-3",              # division truncates toward zero
            "-1", "1",               # remainder keeps the dividend's sign
            "2", "hello",
            "2", "20",
            "abcd", "true", "true",
        ]

    def test_partitioned_matches_reference(self):
        argv = ["prog", "hello"]
        assert run_dual(self.SEM_SRC, argv=argv).transcript == \
            run_reference(parse_program(self.SEM_SRC), argv).transcript

    def test_division_by_zero(self):
        src = (
            "@Untrusted\n"
            "class Main {\n"
            "    static main() {\n"
            "        var z: Int = 0;\n"
            "        print(7 % z);\n"
            "    }\n"
            "}\n")
        with pytest.raises(DslRuntimeError, match="division by zero"):
            run_dual(src)

    def test_primitive_field_defaults(self):
        src = """
@Untrusted
class Fresh {
    i: Int;
    b: Bool;
    s: Str;
    xs: List[Int];
    Fresh() { }
    show() {
        print(this.i);
        print(this.b);
        print(this.s == "");
        print(this.xs.len());
    }
}
@Untrusted
class Main {
    static main(args: List[Str]) {
        var f: Fresh = new Fresh();
        f.show();
        print(args.len());
    }
}
"""
        # argv defaults to an empty list
        assert run_dual(src).transcript == ["0", "false", "true", "0", "0"]

    def test_object_field_read_before_assignment(self):
        src = """
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
@Untrusted
class Main {
    static main() {
        var l: Late = new Late();
        l.get();
    }
}
"""
        with pytest.raises(DslRuntimeError,
                           match="field Late.p read before assignment"):
            run_dual(src)

    def test_an_assignment_to_an_undeclared_field_faults(self):
        """The checker rejects such an assignment, but a tampered image can
        hold one: Box's constructor here assigns w, which Box lacks.  It
        faults as reading w would, and adds no field."""
        plan = plan_of("""
@Neutral
class Box {
    v: Int;
    Box() { this.v = 1; }
    get() -> Int { return this.v; }
}
@Untrusted
class Main {
    static main() {
        var b: Box = new Box();
        print(b.get());
    }
}
""")
        ctor = named(plan.untrusted_image.classes, "Box").method("Box")
        ctor.body[0].target.field_name = "w"
        runtime = DualRuntime(plan)
        with pytest.raises(DslRuntimeError, match="^Box has no field w$"):
            runtime.run_main()
        assert runtime.transcript == []

    @staticmethod
    def _box_plan(expr: str):
        """A plan whose Box.get(k) returns expr, with Box's field v."""
        return plan_of(f"""
@Neutral
class Box {{
    v: Int;
    Box() {{ this.v = 1; }}
    get(k: Int) -> Int {{ return {expr}; }}
}}
@Untrusted
class Main {{
    static main() {{
        var b: Box = new Box();
        print(b.get(2));
    }}
}}
""")

    @pytest.mark.parametrize("expr, operand, value, op", [
        ("this.v + k", "right", StrLit("k"), "+"),
        # a right operand that is not a leaf, evaluated after the left
        ("this.v + -k", "right", ListLit([]), "+"),
        ("-k", "operand", StrLit("k"), "-"),
    ], ids=["binary", "binary-nested", "unary"])
    def test_an_operand_of_another_type_faults(self, expr, operand, value, op):
        """The checker types every operand, but a tampered image can hold
        one of another type: an operand of Box.get's expression replaced
        by a Str, as one edited tag byte turns a Var into a StrLit, or by a
        list.  The run faults instead of failing in the host's
        arithmetic."""
        plan = self._box_plan(expr)
        setattr(named(plan.untrusted_image.classes, "Box").method(
            "get").body[0].value, operand, value)
        runtime = DualRuntime(plan)
        with pytest.raises(DslRuntimeError,
                           match=f"^operands of {re.escape(op)} are not of "
                                 "its types$"):
            runtime.run_main()
        assert runtime.transcript == []

    def test_a_read_of_an_undeclared_field_faults(self):
        """Box.get's this.v renamed this.w, which Box lacks, as an edited
        index into the string table can rename it."""
        plan = self._box_plan("this.v + k")
        value = named(plan.untrusted_image.classes, "Box").method(
            "get").body[0].value
        value.left.field_name = "w"
        runtime = DualRuntime(plan)
        with pytest.raises(DslRuntimeError, match="^Box has no field w$"):
            runtime.run_main()
        assert runtime.transcript == []

    @pytest.mark.parametrize("printed, shown", [
        ("b", "<Box instance>"),
        ("v", "<Vault proxy 0x8000000000000001>"),
        ("xs", "<list of 2>"),
    ], ids=["instance", "proxy", "list"])
    def test_printing_an_object_faults(self, printed, shown):
        """The checker lets print take only an Int, Bool or Str, but a
        tampered image can hand it an object: main's print(k) with k
        renamed, as an edited index into the string table can rename it.
        The fault names the object as its heap record shows it."""
        plan = plan_of("""
@Neutral
class Box {
    Box() { }
}
@Trusted
class Vault {
    Vault() { }
}
@Untrusted
class Main {
    static main() {
        var b: Box = new Box();
        var v: Vault = new Vault();
        var xs: List[Int] = [1, 2];
        var k: Int = 0;
        print(k);
    }
}
""")
        main = named(plan.untrusted_image.classes, "Main").method("main")
        main.body[-1].expr.args[0].name = printed
        runtime = DualRuntime(plan)
        with pytest.raises(DslRuntimeError,
                           match=f"^cannot print {re.escape(shown)}$"):
            runtime.run_main()
        assert runtime.transcript == []

    def test_list_index_out_of_range(self):
        src = """
@Untrusted
class Main {
    static main() {
        var xs: List[Int] = [];
        print(xs.get(0));
    }
}
"""
        with pytest.raises(DslRuntimeError):
            run_dual(src)


class TestHostShims:
    WRITER_SRC = """
@Trusted
class Writer {
    Writer() { }
    emit() {
        print("starting");
        file_write("/data/out.txt", "payload");
        var back: Str = file_read("/data/out.txt");
        print(back);
    }
}
@Untrusted
class Main {
    static main() {
        var w: Writer = new Writer();
        w.emit();
    }
}
"""

    def test_trusted_io_and_print_go_through_shims(self):
        res = run_dual(self.WRITER_SRC, trace=True)
        assert res.transcript == ["starting", "payload"]
        assert res.vfs == {"/data/out.txt": "payload"}
        assert res.shim_ocalls == 4
        shims = [ev for ev in res.trace if ev.kind == "shim"]
        assert [(ev.qualname, ev.nbytes) for ev in shims] == [
            ("__host__.print", 13),
            ("__host__.file_write", 30),
            ("__host__.file_read", 30),
            ("__host__.print", 12),
        ]
        assert all(ev.direction == "ocall" for ev in shims)

    def test_print_payload_grows_with_text(self):
        src = """
@Trusted
class Shout {
    Shout() { }
    go(s: Str) { print(s); }
}
@Untrusted
class Main {
    static main() {
        var sh: Shout = new Shout();
        var s: Str = "%s";
        sh.go(s);
    }
}
""" % ("x" * 4096)
        res = run_dual(src, trace=True)
        shims = [ev for ev in res.trace if ev.kind == "shim"]
        assert len(shims) == 1
        assert shims[0].nbytes == 4101  # tag + length + 4096 chars

    def test_enclave_mode_shims_match(self):
        prog = parse_program(self.WRITER_SRC)
        dual = run_dual(self.WRITER_SRC)
        unpart = run_unpartitioned(prog)
        ref = run_reference(prog)
        assert unpart.transcript == ref.transcript == dual.transcript
        assert unpart.vfs == ref.vfs == dual.vfs
        assert unpart.shim_ocalls == 4
        assert ref.shim_ocalls == 0
        assert ref.total("ocalls") == 0

    def test_file_read_missing_path(self):
        src = """
@Untrusted
class Main {
    static main() {
        var s: Str = file_read("/data/none.txt");
    }
}
"""
        with pytest.raises(DslRuntimeError, match="missing path"):
            run_dual(src)


class TestWholeProgramModes:
    """Frozen cycles of the unpartitioned baselines (no enclave, all enclave)."""

    def test_bank_reference(self, bank_program):
        res = run_reference(bank_program)
        assert res.total_cycles == 106
        assert res.cycles_by_source == {"untrusted": {"alloc": 70, "field": 36}}

    def test_bank_unpartitioned(self, bank_program):
        res = run_unpartitioned(bank_program)
        assert res.total_cycles == 424
        assert res.cycles_by_source == {
            "trusted": {"alloc": 280, "field": 144}, "untrusted": {}}

    def test_writer_reference(self):
        res = run_reference(parse_program(TestHostShims.WRITER_SRC),
                            trace=True)
        assert res.total_cycles == 2010
        assert res.cycles_by_source == {"untrusted": {"alloc": 10, "io": 2000}}
        assert list(res.metrics) == ["untrusted"]
        assert res.trace == []

    def test_writer_unpartitioned(self):
        res = run_unpartitioned(parse_program(TestHostShims.WRITER_SRC),
                                trace=True)
        assert res.total_cycles == 54865
        assert res.cycles_by_source == {
            "trusted": {"alloc": 40, "transition": 52400, "serialize": 365},
            "untrusted": {"io": 2000, "serialize": 60}}
        assert [ev.line() for ev in res.trace] == [
            "1 OCALL shim __host__.print hash=0x0000000000000000 "
            "bytes=13 cycles=13100",
            "2 OCALL shim __host__.file_write hash=0x0000000000000000 "
            "bytes=30 cycles=13100",
            "3 OCALL shim __host__.file_read hash=0x0000000000000000 "
            "bytes=30 cycles=13100",
            "4 OCALL shim __host__.print hash=0x0000000000000000 "
            "bytes=12 cycles=13100",
        ]

    def test_invalid_program_rejected_before_running(self):
        prog = parse_program(
            "@Trusted\nclass Main {\n    Main() { }\n"
            "    static main() { print(\"ran\"); }\n}\n")
        for run in (run_reference, run_unpartitioned):
            with pytest.raises(ValidationFailed, match="MAIN_PLACEMENT"):
                run(prog)

    def test_enclave_missing_read_faults_inside_the_shim(self):
        src = TestHostShims.WRITER_SRC.replace(
            'file_read("/data/out.txt")', 'file_read("/nope")')
        with pytest.raises(DslRuntimeError) as exc:
            run_unpartitioned(parse_program(src))
        assert exc.value.formatted() == (
            "runtime error: file_read of missing path: /nope\n"
            "  -- ocall boundary __host__.file_read --\n"
            "  at Writer.emit\n"
            "  at Main.main")

    IO_SRC = """
@Trusted
class Vault {
    Vault() { }
    keep() {
        file_write("/t.txt", "secret");
        print(file_read("/t.txt"));
    }
}
@Untrusted
class Main {
    static main() {
        file_write("/u.txt", "open");
        print(file_read("/u.txt"));
        var v: Vault = new Vault();
        v.keep();
    }
}
"""

    def test_io_cost_bills_writes_only(self):
        # two writes and two reads in every mode: reads are free
        prog = parse_program(self.IO_SRC)
        runs = {"reference": run_reference(prog),
                "enclave": run_unpartitioned(prog),
                "dual": DualRuntime(compute_images(prog)).run_main()}
        for mode, res in runs.items():
            io = sum(src.get("io", 0) for src in res.cycles_by_source.values())
            assert io == 4000, mode
            assert res.transcript == ["open", "secret"], mode


class TestFrameLimit:
    """The host never occupies a frame, so every mode allows the same depth."""

    SRC = """
@Neutral
class R {
    static down(n: Int) -> Int {
        if (n == 0) { return 0; }
        return R.down(n - 1) + 1;
    }
}
@Untrusted
class Main {
    static main() { print(R.down(%d)); }
}
"""

    @staticmethod
    def runs(depth: int):
        prog = parse_program(TestFrameLimit.SRC % depth)
        plan = compute_images(prog)
        return (lambda: run_reference(prog), lambda: run_unpartitioned(prog),
                lambda: DualRuntime(plan).run_main())

    def test_depth_510_runs_everywhere(self):
        for run in self.runs(510):
            assert run().transcript == ["510"]

    def test_depth_511_fails_alike_everywhere(self):
        diagnostics = set()
        for run in self.runs(511):
            with pytest.raises(DslRuntimeError) as exc:
                run()
            diagnostics.add(exc.value.formatted())
        assert len(diagnostics) == 1
        (text,) = diagnostics
        assert text.startswith(
            "runtime error: call stack exhausted at R.down\n  at R.down")
        assert text.endswith("  at Main.main")


def _observed(rt: DualRuntime, argv: list[str]):
    """Everything a run shows but its trace: transcript, files, metrics,
    cycles by source and the fault text, if any."""
    try:
        rt.run_main(argv)
        fault = ""
    except DslRuntimeError as e:
        fault = e.formatted()
    except EpartError as e:
        fault = str(e)
    r = rt.result()
    return (r.transcript, r.vfs, r.metrics_text(), r.cycles_by_source,
            fault), r.trace


class TestTraceIsOptIn:
    """Tracing only records: on or off, a run does and bills the same."""

    SOURCES = ([p.read_text(encoding="utf-8") for p in
                sorted((Path(__file__).parent / "fixtures").glob("*.ep"))]
               + [BOUNDARY_SRC] + [generate_program(i) for i in range(20)])

    @staticmethod
    def runtimes(program, trace: bool):
        return {
            "dual": DualRuntime(compute_images(program), trace=trace),
            "dual-small-gc": DualRuntime(compute_images(program),
                                         gc_threshold=64, trace=trace),
            "reference": DualRuntime(
                whole_program_plan(program, enclave=False), trace=trace),
            "unpartitioned": DualRuntime(
                whole_program_plan(program, enclave=True), trace=trace),
        }

    def test_tracing_changes_nothing_else(self):
        assert len(self.SOURCES) == 24
        crossings = 0
        for source in self.SOURCES:
            program = parse_program(source)
            untraced = self.runtimes(program, False)
            traced = self.runtimes(program, True)
            for mode, rt in untraced.items():
                seen, trace = _observed(rt, [])
                assert trace == [] and rt.trace == [], mode
                seen_traced, trace = _observed(traced[mode], [])
                assert seen_traced == seen, mode
                crossings += len(trace)
        assert crossings > 0

    def test_runners_pass_the_trace_keyword(self, bank_plan):
        writer = parse_program(TestHostShims.WRITER_SRC)
        assert run_unpartitioned(writer).trace == []
        assert [ev.kind for ev in run_unpartitioned(writer, trace=True).trace] \
            == ["shim"] * 4
        assert run_main(bank_plan).trace == []
        assert len(run_main(bank_plan, trace=True).trace) == 6


class TestDeterminism:
    def test_reruns_are_byte_identical(self, bank_plan):
        runs = [DualRuntime(bank_plan, trace=True).run_main()
                for _ in range(2)]
        assert runs[0].metrics_text() == runs[1].metrics_text()
        assert [ev.line() for ev in runs[0].trace] == \
            [ev.line() for ev in runs[1].trace]
        assert runs[0].cycles_by_source == runs[1].cycles_by_source

    def test_metrics_text_shape(self, bank_plan):
        text = DualRuntime(bank_plan).run_main().metrics_text()
        lines = text.splitlines()
        assert lines[0] == "[trusted]"
        assert "[untrusted]" in lines
        assert "[run]" in lines
        for key in ("ecalls", "ocalls", "bytes_serialized", "allocations",
                    "gc_runs", "gc_cycles", "mirror_registry_size",
                    "live_proxies", "simulated_cycles"):
            assert sum(1 for l in lines if l.startswith(f"{key} = ")) == 2
        assert lines[-3] == "shim_ocalls = 0"
        assert lines[-2] == "remove_calls = 0"
        assert lines[-1] == "total_simulated_cycles = 79287"

    def test_constructor_guards(self, bank_plan):
        with pytest.raises(ValueError, match="gc_scan_every"):
            DualRuntime(bank_plan, gc_scan_every=0)

    def test_a_plan_without_main_cannot_run(self, bank_program):
        plan = compute_images(bank_program)
        plan.untrusted_image.classes = [c for c in plan.untrusted_image.classes
                                        if c.name != "Main"]
        rt = DualRuntime(plan)
        with pytest.raises(InterfaceMismatch) as exc:
            rt.run_main()
        assert str(exc.value) == "plan has no main entry point"

    def test_host_calls_need_an_object_receiver(self, bank_plan):
        rt = DualRuntime(bank_plan)
        with pytest.raises(TypeError) as exc:
            rt.call(UNTRUSTED, 5, "deposit", [1])
        assert str(exc.value) == "cannot call methods on 5"

    def test_dropped_runtime_is_freed_without_the_cyclic_gc(self, bank_plan):
        gc.disable()
        try:
            rt = DualRuntime(bank_plan)
            rt.run_main()
            ref = weakref.ref(rt)
            del rt
            assert ref() is None
        finally:
            gc.enable()

    def test_frozen_output_digest(self, bank_source):
        """One SHA-256 over everything four runs of 60 programs show.

        Any change to transcripts, files, metrics, cycles by source, trace
        lines or fault diagnostics moves it.  Seed-0 progen programs 38 and
        47, whose loops grow a string geometrically, are in since the bound
        on Str `+`; the rest of the corpus was pinned before the interpreter
        became table-driven.
        """
        sources = [generate_program(i) for i in range(60)]
        sources.append(bank_source)
        sources.append(generate_synthetic(SyntheticSpec(
            n_classes=60, pct_untrusted=50, workload="io", seed=0)))
        digest = hashlib.sha256()
        for source in sources:
            program = parse_program(source)
            for rt in (DualRuntime(compute_images(program), trace=True),
                       DualRuntime(whole_program_plan(program, enclave=False),
                                   trace=True),
                       DualRuntime(whole_program_plan(program, enclave=True),
                                   trace=True),
                       DualRuntime(compute_images(program), gc_threshold=256,
                                   gc_scan_every=2, trace=True)):
                try:
                    rt.run_main([])
                    fault = ""
                except DslRuntimeError as e:
                    fault = e.formatted()
                except EpartError as e:
                    fault = str(e)
                r = rt.result()
                digest.update("\x00".join([
                    "\n".join(r.transcript), json.dumps(r.vfs, sort_keys=True),
                    r.metrics_text(),
                    json.dumps(r.cycles_by_source, sort_keys=True),
                    "\n".join(ev.line() for ev in r.trace), fault]).encode())
        assert digest.hexdigest() == \
            "55277e25057d20ebe7e57baeff6fd1f95a4f8a5d054226beef55ed85a97a4846"


class TestOneRuleForNew:
    """`new C` builds C when the side's image holds it and otherwise crosses
    to C's constructor relay, whether the host or the program asks."""

    SRC = """
@Trusted
class Vault {
    Vault() { }
}
@Untrusted
class Main {
    static main() {
        var v: Vault = new Vault();
        print(1);
    }
}
"""

    def test_the_host_and_the_program_fail_alike(self):
        program = parse_program(self.SRC)
        plan = compute_images(program)
        rt = DualRuntime(plan)
        with pytest.raises(InterfaceMismatch) as exc:
            rt.construct(TRUSTED, "Main", [])
        assert str(exc.value) == "no relay Main.Main in the untrusted image"
        new = named(plan.untrusted_image.classes, "Main").methods[0].body[0].init
        new.class_name = "Ghost"
        with pytest.raises(InterfaceMismatch) as exc:
            DualRuntime(plan).run_main()
        assert str(exc.value) == "no relay Ghost.Ghost in the trusted image"

    def test_a_one_isolate_runtime_has_no_relay(self):
        """The reference plan has no trusted image, so the host's crossings
        fail as crossings to an image without the relay."""
        rt = DualRuntime(whole_program_plan(parse_program(self.SRC),
                                            enclave=False))
        assert list(rt.isolates) == [UNTRUSTED]
        with pytest.raises(InterfaceMismatch) as exc:
            rt.construct(UNTRUSTED, "Ghost", [])
        assert str(exc.value) == "no relay Ghost.Ghost in the trusted image"
        with pytest.raises(InterfaceMismatch) as exc:
            rt.call(UNTRUSTED, ProxyObj("Vault", 5), "open", [])
        assert str(exc.value) == "no relay Vault.open in the trusted image"

    def test_a_receiver_from_the_other_image_faults(self, bank_plan):
        rt = DualRuntime(bank_plan)
        person = rt.construct(UNTRUSTED, "Person", ["A", 1])
        with pytest.raises(DslRuntimeError) as exc:
            rt.call(TRUSTED, person, "getAccount", [])
        assert exc.value.message == "Person has no method getAccount"


class TestHostApiMisuse:
    """A host call whose arguments cannot cross fails before the crossing
    is billed."""

    @pytest.mark.parametrize("args, error, message", [
        ([], InterfaceMismatch,
         "Account.updateBalance takes 1 argument(s), not 0"),
        ([1, 2], InterfaceMismatch,
         "Account.updateBalance takes 1 argument(s), not 2"),
        ([ProxyObj("Ghost", 5)], MarshalError, "unknown class Ghost"),
    ], ids=["too-few", "too-many", "unknown-class"])
    def test_nothing_is_billed(self, bank_plan, args, error, message):
        rt = DualRuntime(bank_plan)
        account = rt.construct(UNTRUSTED, "Account", ["X", 5])
        before = rt.result()
        billed = before.metrics_text()
        with pytest.raises(error) as exc:
            rt.call(UNTRUSTED, account, "updateBalance", args)
        assert str(exc.value) == message
        after = rt.result()
        assert after.metrics_text() == billed
        assert after.cycles_by_source == before.cycles_by_source
        assert after.total("ecalls") == 1


FIXTURES = Path(__file__).parent / "fixtures"
REPRICED = CostModel(ecall_cost=7, ocall_cost=11, serialize_per_byte=3,
                     epc_penalty=1.25)


class TestLedgerIdentities:
    """Three cycle sources are their counters times their prices, per
    isolate, on each fixture in all three modes: partitioned, enclave and
    no enclave."""

    @pytest.mark.parametrize("model", [CostModel(), REPRICED],
                             ids=["default", "repriced"])
    @pytest.mark.parametrize("name", ["bank", "every_node", "public_field"])
    def test_counters_times_prices(self, name, model):
        program = parse_program(
            (FIXTURES / f"{name}.ep").read_text(encoding="utf-8"))
        billed = set()
        for plan in (compute_images(program),
                     whole_program_plan(program, enclave=True),
                     whole_program_plan(program, enclave=False)):
            res = DualRuntime(plan, model).run_main()
            for side, m in res.metrics.items():
                by_source = res.cycles_by_source[side]
                assert by_source.get("transition", 0) == \
                    m.ecalls * model.ecall_cost + m.ocalls * model.ocall_cost
                assert by_source.get("serialize", 0) == \
                    m.bytes_serialized * model.serialize_per_byte
                assert by_source.get("alloc", 0) == m.allocations * \
                    model.scaled(model.alloc_cost, side == TRUSTED)
                billed |= {source for source in ("transition", "serialize",
                                                 "alloc") if by_source.get(source)}
        assert billed == {"transition", "serialize", "alloc"}

    def test_scaled_prices_round_half_to_even(self):
        assert REPRICED.scaled(10, trusted=True) == 12  # 12.5
        assert REPRICED.scaled(14, trusted=True) == 18  # 17.5
        assert REPRICED.scaled(10, trusted=False) == 10
        rt = DualRuntime(plan_of("""
@Trusted
class Box {
    Box() { }
}
@Untrusted
class Main {
    static main() {
        var b: Box = new Box();
    }
}
"""), REPRICED)
        rt.run_main()
        assert rt.isolates[TRUSTED].cycles_by_source["alloc"] == 12


# Each price and the cycle sources it prices; epc_penalty scales the trusted
# side's memory-bound sources only.
PRICED_SOURCES = {
    "ecall_cost": {"transition"}, "ocall_cost": {"transition"},
    "alloc_cost": {"alloc"}, "field_access_cost": {"field", "gc"},
    "serialize_per_byte": {"serialize"}, "compute_unit_cost": {"compute"},
    "io_write_cost": {"io"},
}
PENALIZED_SOURCES = {"alloc", "field", "compute", "gc"}


class TestPricesAreAViewOfARun:
    """A run's events do not depend on prices.  So under another model a
    program does and counts the same, the model's price of the default
    run's counts is the rerun's bill, and only the sources the changed
    price prices move."""

    VARIANTS = [(key, value) for key in PRICED_SOURCES for value in (0, 3)] + [
        ("epc_penalty", 1.25), ("epc_penalty", 1.5)]

    @staticmethod
    def corpus() -> list[str]:
        return ([generate_program(i) for i in range(30)]
                + [generate_synthetic(SyntheticSpec(
                    n_classes=20, pct_untrusted=50, workload=w, seed=0))
                   for w in ("io", "cpu")]
                + [p.read_text(encoding="utf-8")
                   for p in sorted(FIXTURES.glob("*.ep"))])

    @staticmethod
    def run(plan, model: CostModel):
        rt = DualRuntime(plan, model)
        try:
            rt.run_main([])
            fault = ""
        except DslRuntimeError as e:
            fault = e.formatted()
        except EpartError as e:
            fault = str(e)
        return rt, rt.result(), fault

    @staticmethod
    def moved(key: str, side: str) -> set[str]:
        if key == "epc_penalty":
            return PENALIZED_SOURCES if side == TRUSTED else set()
        return PRICED_SOURCES[key]

    def test_repricing_a_run_equals_running_it_again(self):
        default = CostModel()
        assert len(self.VARIANTS) == 16
        moves = dict.fromkeys(self.VARIANTS, 0)
        billed = set()
        for source in self.corpus():
            program = parse_program(source)
            for plan in (compute_images(program),
                         whole_program_plan(program, enclave=True),
                         whole_program_plan(program, enclave=False)):
                rt, base, fault = self.run(plan, default)
                billed |= {s for by_source in base.cycles_by_source.values()
                           for s in by_source}
                for key, value in self.VARIANTS:
                    variant = dataclasses.replace(default, **{key: value})
                    _, res, refault = self.run(plan, variant)
                    assert (res.transcript, res.vfs, refault) == \
                        (base.transcript, base.vfs, fault)
                    for side, iso in rt.isolates.items():
                        was = base.cycles_by_source[side]
                        now = res.cycles_by_source[side]
                        assert variant.price(iso) == now
                        assert now.keys() == was.keys()
                        kept = now.keys() - self.moved(key, side)
                        assert {s: now[s] for s in kept} == \
                            {s: was[s] for s in kept}, (key, side)
                        moves[key, value] += now != was
        assert billed == {"transition", "serialize", "alloc", "field",
                          "compute", "gc", "io"}
        assert all(moves.values()), moves

    def test_an_event_priced_zero_keeps_its_entry(self):
        res = run_dual("""
@Untrusted
class Main {
    static main() {
        compute(0);
        gc();
    }
}
""")
        assert res.cycles_by_source == {TRUSTED: {},
                                        UNTRUSTED: {"compute": 0, "gc": 0}}

    def test_compute_events_round_one_by_one(self):
        """compute(2) twice in the enclave at penalty 1.25 bills 2 + 2
        (2.5 rounds half to even), not round(4 * 1.25) = 5."""
        res = run_dual("""
@Trusted
class Work {
    Work() {
        compute(2);
        compute(2);
    }
}
@Untrusted
class Main {
    static main() {
        var w: Work = new Work();
    }
}
""", model=CostModel(epc_penalty=1.25))
        assert res.cycles_by_source[TRUSTED] == {"alloc": 12, "compute": 4}
