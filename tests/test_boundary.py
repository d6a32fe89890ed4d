"""Golden values of every kind of boundary crossing.

One hand-written program, run partitioned at a small gc_threshold, crosses
the boundary in each way the runtime knows: a constructor reached through a
proxy; an invoke carrying Int, Str, List[Str], a neutral object and an href;
returns of a List and of an href to a live proxy (reused, not re-adopted);
a trusted -> untrusted ocall; the trusted print/file_write/file_read shims;
and gc()-driven release transitions.  The frozen trace lines, metrics and
cycles pin the bytes of list, href and neutral payloads, which the progen
corpus behind the frozen output digest never sends.
"""

import dataclasses

import pytest

from epart.dsl import parse_program
from epart.errors import (
    DslRuntimeError, InterfaceMismatch, MarshalError, StaleMirror,
)
from epart.partition import compute_images
from epart.runtime import (
    TRUSTED, UNTRUSTED, DualRuntime, InstanceObj, ListObj, wire,
)

SRC = """@Neutral
class Point {
    x: Int;
    label: Str;
    Point(x: Int, label: Str) {
        this.x = x;
        this.label = label;
    }
    getX() -> Int { return this.x; }
    getLabel() -> Str { return this.label; }
}
@Trusted
class Cell {
    v: Int;
    Cell(v: Int) { this.v = v; }
    get() -> Int { return this.v; }
}
@Trusted
class Vault {
    cell: Cell;
    names: List[Str];
    keep: Handle;
    Vault(seed: Int) {
        this.cell = new Cell(seed);
        this.names = ["a"];
    }
    store(n: Int, s: Str, tags: List[Str], p: Point, h: Handle) -> Int {
        this.names.append(s);
        this.names.append(tags.get(0));
        this.names.append(p.getLabel());
        this.keep = h;
        var echoed: Int = h.ping(n + p.getX());
        file_write("/vault.txt", s);
        print(file_read("/vault.txt"));
        return echoed;
    }
    cellOf() -> Cell {
        return this.cell;
    }
    tags() -> List[Str] {
        return this.names;
    }
    sweep() {
        this.keep = new Handle(0);
        gc();
    }
}
@Untrusted
class Handle {
    base: Int;
    Handle(base: Int) { this.base = base; }
    ping(k: Int) -> Int {
        print("ping");
        return this.base + k;
    }
}
@Trusted
class Temp {
    Temp() { }
}
@Untrusted
class Main {
    static main() {
        var v: Vault = new Vault(7);
        var h: Handle = new Handle(100);
        var p: Point = new Point(2, "pt");
        var r: Int = v.store(5, "hello", ["t1", "t2"], p, h);
        print("r");
        var c1: Cell = v.cellOf();
        var c2: Cell = v.cellOf();
        print("c");
        var ts: List[Str] = v.tags();
        print(ts.get(3));
        var i: Int = 0;
        while (i < 4) {
            var t: Temp = new Temp();
            i = i + 1;
        }
        gc();
        v.sweep();
        print("done");
    }
}
"""

TRACE = [
    "1 ECALL ctor Vault.Vault hash=0x8000000000000001 bytes=9 cycles=13100",
    "2 ECALL invoke Vault.store hash=0x8000000000000001 bytes=85 cycles=13100",
    "3 OCALL invoke Handle.ping hash=0x0000000000000001 bytes=18 cycles=13100",
    "4 OCALL shim __host__.file_write hash=0x0000000000000000 bytes=25 "
    "cycles=13100",
    "5 OCALL shim __host__.file_read hash=0x0000000000000000 bytes=25 "
    "cycles=13100",
    "6 OCALL shim __host__.print hash=0x0000000000000000 bytes=10 cycles=13100",
    "7 ECALL invoke Vault.cellOf hash=0x8000000000000001 bytes=13 cycles=13100",
    "8 ECALL invoke Vault.cellOf hash=0x8000000000000001 bytes=13 cycles=13100",
    "9 ECALL invoke Vault.tags hash=0x8000000000000001 bytes=35 cycles=13100",
    "10 ECALL ctor Temp.Temp hash=0x8000000000000003 bytes=0 cycles=13100",
    "11 ECALL ctor Temp.Temp hash=0x8000000000000004 bytes=0 cycles=13100",
    "12 ECALL ctor Temp.Temp hash=0x8000000000000005 bytes=0 cycles=13100",
    "13 ECALL remove Temp.release hash=0x8000000000000003 bytes=0 cycles=13100",
    "14 ECALL remove Temp.release hash=0x8000000000000004 bytes=0 cycles=13100",
    "15 ECALL ctor Temp.Temp hash=0x8000000000000006 bytes=0 cycles=13100",
    "16 ECALL remove Temp.release hash=0x8000000000000005 bytes=0 cycles=13100",
    "17 ECALL invoke Vault.sweep hash=0x8000000000000001 bytes=0 cycles=13100",
    "18 OCALL ctor Handle.Handle hash=0x0000000000000002 bytes=9 cycles=13100",
    "19 OCALL remove Handle.release hash=0x0000000000000001 bytes=0 "
    "cycles=13100",
]

METRICS = """\
[trusted]
ecalls = 0
ocalls = 6
bytes_serialized = 138
allocations = 9
gc_runs = 4
gc_cycles = 5760
mirror_registry_size = 3
live_proxies = 1
simulated_cycles = 85546

[untrusted]
ecalls = 13
ocalls = 0
bytes_serialized = 104
allocations = 9
gc_runs = 4
gc_cycles = 1376
mirror_registry_size = 1
live_proxies = 3
simulated_cycles = 174298

[run]
shim_ocalls = 3
remove_calls = 4
total_simulated_cycles = 259844
"""

CYCLES_BY_SOURCE = {
    "trusted": {"alloc": 360, "field": 136, "gc": 5760, "transition": 78600,
                "serialize": 690},
    "untrusted": {"transition": 170300, "serialize": 520, "alloc": 90,
                  "field": 12, "gc": 1376, "io": 2000},
}


@pytest.fixture(scope="module")
def plan():
    return compute_images(parse_program(SRC))


def test_every_crossing_kind_is_frozen(plan):
    res = DualRuntime(plan, gc_threshold=64, trace=True).run_main()
    assert res.transcript == ["ping", "hello", "r", "c", "pt", "done"]
    assert res.vfs == {"/vault.txt": "hello"}
    assert [ev.line() for ev in res.trace] == TRACE
    assert res.metrics_text() == METRICS
    assert res.cycles_by_source == CYCLES_BY_SOURCE


def test_invoke_on_a_released_mirror_adopts_nothing(plan):
    """The mirror is looked up before any argument lands on the target."""
    rt = DualRuntime(plan, trace=True)
    vault = rt.construct(UNTRUSTED, "Vault", [7])
    handle = rt.construct(UNTRUSTED, "Handle", [100])
    point = rt.construct(UNTRUSTED, "Point", [2, "pt"])
    tags = rt.make_list(UNTRUSTED, ["t1"])
    trusted = rt.isolates[TRUSTED]
    del trusted.registry[vault.hash_value]
    with pytest.raises(StaleMirror):
        rt.call(UNTRUSTED, vault, "store", [5, "hello", tags, point, handle])
    assert trusted.proxy_table == {}
    assert trusted.metrics.live_proxies == 0
    assert len(trusted.heap) == 4  # the Vault, its Cell and two lists
    assert [ev.line() for ev in rt.trace] == [
        "1 ECALL ctor Vault.Vault hash=0x8000000000000001 bytes=9 cycles=13100",
        "2 ECALL invoke Vault.store hash=0x8000000000000001 bytes=69 "
        "cycles=13100",
    ]


def test_a_missing_relay_is_an_interface_mismatch(plan):
    """The host API reaches relays by names no checker saw.  A name the
    far image does not serve, declared or pruned, fails before crossing."""
    rt = DualRuntime(plan)
    vault = rt.construct(UNTRUSTED, "Vault", [7])
    cell = rt.call(UNTRUSTED, vault, "cellOf", [])
    handle = rt.construct(TRUSTED, "Handle", [1])
    before = {side: (iso.ecalls, iso.ocalls) for side, iso in rt.isolates.items()}
    attempts = [
        (lambda: rt.call(UNTRUSTED, vault, "open", []),
         "no relay Vault.open in the trusted image"),
        (lambda: rt.call(UNTRUSTED, cell, "get", []),
         "no relay Cell.get in the trusted image"),
        (lambda: rt.construct(UNTRUSTED, "Cell", [3]),
         "no relay Cell.Cell in the trusted image"),
        (lambda: rt.call(TRUSTED, handle, "pong", [2]),
         "no relay Handle.pong in the untrusted image"),
    ]
    for attempt, message in attempts:
        with pytest.raises(InterfaceMismatch) as exc:
            attempt()
        assert str(exc.value) == message
    assert {side: (iso.ecalls, iso.ocalls)
            for side, iso in rt.isolates.items()} == before


BIND_SRC = """
@Trusted
class C {
    C() { }
    m(n: Int) -> Int { return 10 / n; }
}
@Untrusted
class Main {
    static main() {
        var c: C = new C();
        print(c.m(2));
        print(c.m(0));
    }
}
"""


def test_a_relay_runs_the_method_the_method_table_names():
    """A relay is bound once, to the first method of its name, the one
    ast.method_table names; a fault inside it reads as a fault in the
    relay's class, across the boundary it was entered by."""
    plan = compute_images(parse_program(BIND_SRC))
    (cls,) = [c for c in plan.trusted_image.classes if c.name == "C"]
    first = cls.method("m")
    second = parse_program(BIND_SRC.replace("10 / n", "7")).classes[0]
    cls.methods.append(second.method("m"))  # no checker admits two
    assert [m.name for m in cls.methods] == ["C", "m", "m"]
    rt = DualRuntime(plan)
    decl, method = rt.relays[TRUSTED]["C", "m"][1]
    assert decl is cls and method is first
    with pytest.raises(DslRuntimeError) as exc:
        rt.run_main()
    assert rt.transcript == ["5"]
    assert exc.value.formatted() == (
        "runtime error: division by zero\n"
        "  at C.m\n"
        "  -- ecall boundary C.m --\n"
        "  at Main.main")


# -- marshalling faults -------------------------------------------------------

FAULT_SRC = """@Neutral
class Link {
    items: List[Link];
    next: Link;
    Link() { this.items = []; }
    setItems(ls: List[Link]) { this.items = ls; }
    setNext(l: Link) { this.next = l; }
}
@Neutral
class Tag {
    n: Int;
    Tag(n: Int) { this.n = n; }
}
@Trusted
class Sink {
    Sink() { }
    link(l: Link) -> Int { return 1; }
    links(ls: List[Link]) -> Int { return 2; }
    tag(t: Tag) -> Int { return 3; }
    count(n: Int) -> Int { return n; }
    peer(o: Sink) -> Int { return 4; }
}
@Untrusted
class Main {
    static main() {
        var s: Sink = new Sink();
        BODY
    }
}
"""

CTOR_LINE = "1 ECALL ctor Sink.Sink hash=0x8000000000000001 bytes=0 cycles=13100"


def fault_plan(body: str):
    return compute_images(parse_program(FAULT_SRC.replace("BODY", body)))


def caller_state(rt):
    """What a crossing bills its caller, the untrusted side here."""
    iso = rt.isolates[UNTRUSTED]
    return (iso.ecalls, iso.ocalls, iso.cycles_by_source.get("transition"),
            iso.bytes_serialized, [ev.line() for ev in rt.trace])


class TestMarshalFaults:
    """Each fault of a crossing's walks, by exact text.  A value that cannot
    be measured fails before its crossing is billed; a payload the target
    cannot land fails on the target, after the one transition."""

    @pytest.mark.parametrize("body, message", [
        ("var ls: List[Link] = []; var l: Link = new Link(); l.setItems(ls); "
         "l.setNext(l); ls.append(l); print(s.links(ls));",
         "cyclic value cannot cross the boundary"),
        ("var l: Link = new Link(); l.setNext(l); print(s.link(l));",
         "cyclic value cannot cross the boundary"),
        ("var l: Link = new Link(); print(s.link(l));",
         "unset field Link.next cannot cross the boundary"),
    ], ids=["cyclic list", "cyclic neutral", "unset field"])
    def test_a_program_value_that_cannot_cross(self, body, message):
        rt = DualRuntime(fault_plan(body), trace=True)
        with pytest.raises(MarshalError) as exc:
            rt.run_main()
        assert str(exc.value) == message
        # Only the constructor crossed; the failed call billed nothing.
        assert caller_state(rt) == (1, 0, 13100, 0, [CTOR_LINE])
        assert rt.isolates[TRUSTED].cycles_by_source == {"alloc": 40}

    @pytest.mark.parametrize("arg, message", [
        (2**63, "integer 9223372036854775808 out of 64-bit range"),
        (-2**63 - 1, "integer -9223372036854775809 out of 64-bit range"),
        (1.5, "cannot marshal 1.5"),
        ("a\udcffb", "Str is not UTF-8 text: surrogates not allowed"),
    ], ids=["above", "below", "foreign", "not UTF-8"])
    def test_a_host_value_that_cannot_cross(self, arg, message):
        rt = DualRuntime(fault_plan("print(s.count(1));"), trace=True)
        sink = rt.construct(UNTRUSTED, "Sink", [])
        before = caller_state(rt)
        with pytest.raises(MarshalError) as exc:
            rt.call(UNTRUSTED, sink, "count", [arg])
        assert str(exc.value) == message
        assert caller_state(rt) == before == (1, 0, 13100, 0, [CTOR_LINE])

    def test_a_host_list_holding_itself(self):
        """A cycle through lists alone; a program cannot build one."""
        rt = DualRuntime(fault_plan("print(s.count(1));"), trace=True)
        sink = rt.construct(UNTRUSTED, "Sink", [])
        loop = rt.make_list(UNTRUSTED, [1])
        loop.items.append(ListObj([loop]))
        before = caller_state(rt)
        with pytest.raises(MarshalError) as exc:
            rt.call(UNTRUSTED, sink, "count", [loop])
        assert str(exc.value) == "cyclic value cannot cross the boundary"
        assert caller_state(rt) == before

    def test_a_neutral_class_absent_from_the_target_image(self):
        plan = fault_plan("print(s.tag(new Tag(2)));")
        plan.trusted_image.classes = [c for c in plan.trusted_image.classes
                                      if c.name != "Tag"]
        rt = DualRuntime(plan, trace=True)
        sink = rt.construct(UNTRUSTED, "Sink", [])
        tag = rt.construct(UNTRUSTED, "Tag", [2])
        heap = len(rt.isolates[TRUSTED].heap)
        with pytest.raises(MarshalError) as exc:
            rt.call(UNTRUSTED, sink, "tag", [tag])
        assert str(exc.value) == "class Tag is not present in the trusted image"
        # The bytes crossed and were billed; nothing landed.
        assert caller_state(rt) == (2, 0, 26200, 18, [
            CTOR_LINE,
            "2 ECALL invoke Sink.tag hash=0x8000000000000001 bytes=18 "
            "cycles=13100"])
        assert len(rt.isolates[TRUSTED].heap) == heap

    def test_an_argument_whose_mirror_is_gone(self):
        """Arguments land only after the receiver's mirror is found; an
        argument's own mirror is looked up as it lands."""
        rt = DualRuntime(fault_plan("print(s.peer(s));"), trace=True)
        sink = rt.construct(UNTRUSTED, "Sink", [])
        other = rt.construct(UNTRUSTED, "Sink", [])
        del rt.isolates[TRUSTED].registry[other.hash_value]
        with pytest.raises(StaleMirror) as exc:
            rt.call(UNTRUSTED, sink, "peer", [other])
        assert str(exc.value) == \
            "no mirror registered for hash 0x8000000000000002"
        assert caller_state(rt)[:4] == (3, 0, 39300, 13)

    @pytest.mark.parametrize("fields, message", [
        (0, "Tag payload has 0 fields, expected 1"),
        (2, "Tag payload has 2 fields, expected 1"),
    ], ids=["field count", "extra field"])
    def test_a_payload_the_target_cannot_land(self, fields, message):
        """A neutral object whose class has another field count on the
        sending side: it measures, and landing it fails with nothing built."""
        plan = fault_plan("print(s.tag(new Tag(2)));")
        rt = DualRuntime(plan, trace=True)
        rt.construct(UNTRUSTED, "Sink", [])
        untrusted, trusted = rt.isolates[UNTRUSTED], rt.isolates[TRUSTED]
        decl = rt.interps[UNTRUSTED].classes["Tag"]
        sent = dataclasses.replace(decl, fields=[
            dataclasses.replace(decl.fields[0], name=f"n{i}")
            for i in range(fields)])
        tag = InstanceObj(sent, {f.name: 2 for f in sent.fields})
        assert wire.measure([tag], untrusted, rt) == 9 + 9 * fields
        before, heap = caller_state(rt), list(trusted.heap)
        with pytest.raises(MarshalError) as exc:
            wire.land([tag], untrusted, trusted, rt)
        assert str(exc.value) == message
        assert caller_state(rt) == before
        assert trusted.heap == heap and trusted.proxy_table == {}
