import collections
import dataclasses
import hashlib
import os
import random
import re
import struct
from pathlib import Path

import pytest

from epart._version import __version__
from epart.bench import SyntheticSpec, generate_corpus, generate_synthetic
from epart.cli import main
from epart.dsl import parse_program, validate
from epart.dsl.ast import (
    UNIT, Annotation, BoolLit, ClassDecl, IntLit, MethodDecl, Param, Program,
    Return, TypeRef, VarDecl, Visibility,
)
from epart.errors import (
    EpartError, FormatError, InterfaceMismatch, UnresolvedCall,
)
from epart.partition import (
    CONCRETE, PROXY, build_call_graph, compute_images, derive_interface, emit,
    find_main, load_plan, whole_program_plan,
)
from epart.partition.emit import INTERFACE_FILE, TRUSTED_IMG, UNTRUSTED_IMG
from epart.partition.image import (
    _EXPR_TAGS, _STMT_TAGS, MAGIC, _get_body, _get_class, _get_exprs,
    _get_field, _get_method, _get_table, _get_type, _put_anns, _put_classes,
    _put_method, _Table, _Writer, decode_image, encode_image,
)
from epart.partition.model import MarshalKind, relay_direction, stub_for
from epart.partition.plan import PartitionPlan
from epart.runtime import DualRuntime
from epart.runtime import Isolate

FIXTURES = Path(__file__).parent / "fixtures"


def named(decls, name: str):
    """The class or proxy of that name in decls, or None."""
    return next((c for c in decls if c.name == name), None)


def plan_of(source: str):
    return compute_images(parse_program(source))


class TestBankImages:
    def test_class_split(self, bank_plan):
        assert [c.name for c in bank_plan.trusted_image.classes] == \
            ["Account", "AccountRegistry"]
        assert [c.name for c in bank_plan.untrusted_image.classes] == \
            ["Person", "Main"]

    def test_descriptor_records(self, bank_plan):
        lines = [r.render() for r in bank_plan.descriptor]
        assert lines == [
            "ecall Account.Account(ser,prim) -> unit",
            "ecall Account.updateBalance(prim) -> unit",
            "ecall AccountRegistry.AccountRegistry() -> unit",
            "ecall AccountRegistry.addAccount(href) -> unit",
        ]

    def test_untrusted_image_has_trusted_proxies(self, bank_plan):
        proxies = {p.name: p for p in bank_plan.untrusted_image.proxies}
        assert set(proxies) == {"Account", "AccountRegistry"}
        account = proxies["Account"]
        assert account.annotation == Annotation.TRUSTED and account.fields == []
        assert {s.name for s in account.methods} == {"Account", "updateBalance"}
        assert all(s.body == [] for s in account.methods)

    def test_trusted_image_prunes_unused_proxies(self, bank_plan):
        # no trusted method ever calls back into untrusted code
        assert named(bank_plan.untrusted_image.proxies, "Person") is None
        assert bank_plan.trusted_image.proxies == []
        assert named(bank_plan.trusted_image.proxies, "Person") is None

    def test_entry_points(self, bank_plan):
        """main is in the untrusted image, which serves no relays; the
        trusted image is entered at its relays alone."""
        image, cls, method = find_main(bank_plan)
        assert image is bank_plan.untrusted_image
        assert (cls.name, method.name) == ("Main", "main")
        assert [r.relay_id for r in bank_plan.trusted_image.relays] == [
            "Account.Account", "Account.updateBalance",
            "AccountRegistry.AccountRegistry", "AccountRegistry.addAccount",
        ]
        assert bank_plan.untrusted_image.relays == []

    @pytest.mark.parametrize("enclave", [False, True])
    def test_a_whole_program_image_is_entered_at_main_alone(
            self, bank_program, enclave, tmp_path, capsys):
        """A whole-program plan has no proxies, so no relays: main, on the
        image that holds every class, is its one entry point, and inspect
        lists it alone."""
        plan = whole_program_plan(bank_program, enclave)
        whole = plan.trusted_image if enclave else plan.untrusted_image
        assert find_main(plan)[0] is whole
        assert whole.relays == [] and plan.descriptor == []
        if enclave:
            assert plan.untrusted_image.relays == []
            emit(plan, tmp_path)
            for name, listed in (("trusted", "entry points (1):\n  main\n"),
                                 ("untrusted", "entry points (0):\n")):
                capsys.readouterr()
                assert main(["inspect", str(tmp_path), name]) == 0
                assert listed + "interface descriptor (0 records):\n" in \
                    capsys.readouterr().out

    def test_every_class_in_exactly_its_images(self, bank_plan):
        for cname, ann in bank_plan.annotations.items():
            in_trusted = named(bank_plan.trusted_image.classes, cname) is not None
            in_untrusted = named(bank_plan.untrusted_image.classes, cname) is not None
            if ann == Annotation.TRUSTED:
                assert in_trusted and not in_untrusted
            elif ann == Annotation.UNTRUSTED:
                assert in_untrusted and not in_trusted
            else:
                assert in_trusted and in_untrusted


class TestRelayFixpoint:
    SRC = """
@Trusted
class T {
    T() { }
    pull() {
        var u: U = new U();
        u.feed(1);
    }
    quiet() { }
}
@Untrusted
class U {
    v: Int;
    U() { this.v = 0; }
    feed(x: Int) { this.v = x; }
    unused(x: Int) { }
}
@Untrusted
class Main {
    static main() {
        var t: T = new T();
        t.pull();
    }
}
"""

    def test_ocall_relays_survive_only_if_reachable(self):
        plan = plan_of(self.SRC)
        u_proxy = named(plan.trusted_image.proxies, "U")
        assert u_proxy is not None
        assert {s.name for s in u_proxy.methods} == {"U", "feed"}
        records = {(r.direction, r.class_name, r.method_name)
                   for r in plan.descriptor}
        assert ("ocall", "U", "feed") in records
        assert ("ocall", "U", "unused") not in records

    def test_unreachable_trusted_method_keeps_no_relay(self):
        plan = plan_of(self.SRC)
        t_proxy = named(plan.untrusted_image.proxies, "T")
        assert {s.name for s in t_proxy.methods} == {"T", "pull"}

    def test_relays_only_unreached_code_calls_are_pruned(self):
        # main never touches T, so T's relays die, and so do U's, which
        # only T's methods call.
        src = """
@Trusted
class T {
    T() { }
    pull() {
        var u: U = new U();
        u.feed(1);
    }
}
@Untrusted
class U {
    v: Int;
    U() { this.v = 0; }
    feed(x: Int) { this.v = x; }
}
@Untrusted
class Main {
    static main() {
        var u: U = new U();
        u.feed(2);
    }
}
"""
        plan = plan_of(src)
        assert named(plan.untrusted_image.proxies, "T") is None
        assert named(plan.trusted_image.proxies, "U") is None
        assert plan.descriptor == []

    def test_a_relay_cycle_main_never_reaches_is_pruned(self):
        # T.f and U.g call each other across the boundary, but main only
        # prints: neither relay, nor class T, nor either proxy is kept.
        plan = plan_of(CYCLE_SRC)
        assert plan.descriptor == []
        assert plan.trusted_image.classes == []
        assert plan.trusted_image.proxies == []
        assert plan.untrusted_image.proxies == []
        assert [c.name for c in plan.untrusted_image.classes] == ["Main"]

    def test_adding_a_call_revives_the_proxy(self):
        revived = self.SRC.replace("t.pull();", "t.pull();\n        t.quiet();")
        base = plan_of(self.SRC)
        plan = plan_of(revived)
        base_stubs = {s.name
                      for s in named(base.untrusted_image.proxies, "T").methods}
        new_stubs = {s.name
                     for s in named(plan.untrusted_image.proxies, "T").methods}
        assert new_stubs == base_stubs | {"quiet"}

    NEUTRAL_BOTH_SIDES_SRC = """
@Trusted
class T {
    T() { }
    g() -> Int { return 1; }
}
@Neutral
class N {
    static f(t: T) -> Int { return t.g(); }
}
@Trusted
class D {
    D() { }
    run(t: T) -> Int { return N.f(t); }
}
@Untrusted
class Main {
    static main() {
        var t: T = new T();
        var d: D = new D();
        print(N.f(t));
        print(d.run(t));
    }
}
"""

    def test_a_neutral_method_reached_from_both_sides_runs_in_both(
            self, tmp_path, capsys):
        """N.f runs on the host, from main, and in the enclave, from D.run.
        The walk keys what it reached by side too, so reaching N.f in one
        image does not stop it there in the other, and T.g stays concrete
        in the trusted image and a stub in the untrusted one."""
        plan = plan_of(self.NEUTRAL_BOTH_SIDES_SRC)
        t, u = plan.trusted_image, plan.untrusted_image
        assert [c.name for c in t.classes] == ["T", "N", "D"]
        assert t.proxies == []
        assert [c.name for c in u.classes] == ["N", "Main"]
        assert [(p.name, [s.name for s in p.methods]) for p in u.proxies] == [
            ("T", ["T", "g"]), ("D", ["D", "run"])]
        assert [r.render() for r in plan.descriptor] == [
            "ecall D.D() -> unit", "ecall D.run(href) -> prim",
            "ecall T.T() -> unit", "ecall T.g() -> prim"]
        src = tmp_path / "both.ep"
        src.write_text(self.NEUTRAL_BOTH_SIDES_SRC)
        assert main(["compare", str(src)]) == 0
        assert capsys.readouterr().out.startswith("PASS: 2 transcript line(s)")


CYCLE_SRC = """
@Trusted
class T {
    T() { }
    f(u: U) { u.g(this); }
}
@Untrusted
class U {
    U() { }
    g(t: T) { t.f(this); }
}
@Untrusted
class Main {
    static main() { print(1); }
}
"""

# Untrusted code receives an N from a trusted method, and names N nowhere
# but in local declarations.
STUB_RETURNS_NEUTRAL_SRC = """
@Neutral
class N {
    public v: Int;
    N(x: Int) { this.v = x; }
}
@Trusted
class T {
    T() { }
    make() -> N { return new N(7); }
}
@Untrusted
class Main {
    static main() {
        var t: T = new T();
        var n: N = t.make();
        print(1);
    }
}
"""


class TestTypeClosure:
    def test_a_neutral_class_a_reached_stub_returns_ships_with_the_image(self):
        plan = plan_of(STUB_RETURNS_NEUTRAL_SRC)
        n = named(plan.untrusted_image.classes, "N")
        assert n is not None and n.methods == []
        assert [c.name for c in plan.trusted_image.classes] == ["N", "T"]
        result = DualRuntime(plan).run_main()
        assert result.transcript == ["1"]
        assert result.total("ecalls") == 2


def _node_classes(value, seen: set) -> set:
    """The classes of every dataclass instance reachable from value."""
    if dataclasses.is_dataclass(value):
        seen.add(type(value))
        for f in dataclasses.fields(value):
            _node_classes(getattr(value, f.name), seen)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _node_classes(item, seen)
    return seen


class _RunsAway(Exception):
    """A run stopped at the fuzz test's bound on blocks executed."""


def _single_byte_mutations(images: dict[str, bytes]):
    """3000 seeded single-byte edits: (image name, offset, mutated bytes)."""
    rng = random.Random(0)
    for _ in range(3000):
        name = rng.choice(sorted(images))
        data = bytearray(images[name])
        value = rng.randrange(256)  # drawn before the offset, as it always was
        # One random() per offset, whatever the image's length, so an image
        # that grows or shrinks moves no other draw.
        pos = int(rng.random() * len(data))
        data[pos] = value
        yield name, pos, bytes(data)


def _u32(n: int) -> bytes:
    return struct.pack("<I", n)


def _s(text: str) -> bytes:
    """A string as an image's string table stores it."""
    data = text.encode()
    return _u32(len(data)) + data


def _strings(data: bytes) -> tuple[list[str], int]:
    """An image's string table, and the offset of the body after it."""
    table, body = _get_table(data, len(MAGIC))
    return table.entries, body


def _ref(data: bytes, text: str) -> bytes:
    """The u32 by which an image's body names text: its index in the
    image's string table."""
    return _u32(_strings(data)[0].index(text))


def _tag(cls) -> bytes:
    return bytes([(_EXPR_TAGS if cls in _EXPR_TAGS else _STMT_TAGS).index(cls)])


def _fixture_plan(name: str):
    return compute_images(parse_program(
        (FIXTURES / name).read_text(encoding="utf-8")))


def _assert_roundtrip(plan, out_dir) -> None:
    """emit then load_plan gives back equal images (positions aside)."""
    emit(plan, out_dir)
    loaded = load_plan(out_dir)
    for side in (Annotation.TRUSTED, Annotation.UNTRUSTED):
        image, back = plan.image(side), loaded.image(side)
        assert back.classes == image.classes
        assert back.proxies == image.proxies
        assert back.relays == image.relays
    home, *main_at = find_main(plan)
    back_home, *back_main_at = find_main(loaded)
    assert (back_home.side, back_main_at) == (home.side, main_at)
    assert loaded.descriptor == plan.descriptor
    assert loaded.annotations == plan.annotations


class TestEmitLoad:
    def test_roundtrip(self, bank_plan, tmp_path):
        _assert_roundtrip(bank_plan, tmp_path)

    def test_roundtrip_over_corpus_with_every_node_kind(self, tmp_path):
        seen: set = set()
        for i, source in enumerate(generate_corpus(10, seed=5)):
            plan = compute_images(parse_program(source))
            _assert_roundtrip(plan, tmp_path / str(i))
            for image in (plan.trusted_image, plan.untrusted_image):
                _node_classes(image.classes, seen)
        assert set(_EXPR_TAGS) | set(_STMT_TAGS) <= seen

    def test_images_decode_to_the_plan_and_encode_back(self):
        """The readers and the writer agree: over the fixtures, progen seeds
        0-49 and 20-class cpu and io synth programs, each image decodes to
        the image compute_images made, less the relays derived from it, and
        encodes back to its bytes."""
        sources = [(FIXTURES / name).read_text(encoding="utf-8")
                   for name in ("bank.ep", "every_node.ep", "public_field.ep")]
        sources += generate_corpus(50, seed=0)
        sources += [generate_synthetic(SyntheticSpec(
            n_classes=20, pct_untrusted=50, workload=w)) for w in ("cpu", "io")]
        for source in sources:
            plan = plan_of(source)
            for image in (plan.trusted_image, plan.untrusted_image):
                data = encode_image(plan, image)
                back, annotations, version = decode_image(data)
                stored = dataclasses.replace(image, relays=[])
                assert (back, annotations, version) == \
                    (stored, plan.annotations, __version__)
                assert encode_image(PartitionPlan(back, back, annotations),
                                    back) == data

    def test_an_image_stores_each_string_once(self):
        """Each class of the 200-class io program writes the same
        4096-character payload; each image's string table holds it once."""
        spec = SyntheticSpec(n_classes=200, pct_untrusted=50, workload="io")
        plan = plan_of(generate_synthetic(spec))
        payload = "x" * spec.io_bytes
        assert len(payload) == 4096
        for image in (plan.trusted_image, plan.untrusted_image):
            data = encode_image(plan, image)
            assert data.count(payload.encode()) == 1

    def test_emit_is_deterministic(self, bank_plan, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        emit(bank_plan, a)
        emit(bank_plan, b)
        for name in (TRUSTED_IMG, UNTRUSTED_IMG, INTERFACE_FILE):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_file(self, bank_plan, tmp_path):
        emit(bank_plan, tmp_path)
        (tmp_path / UNTRUSTED_IMG).unlink()
        with pytest.raises(FileNotFoundError):
            load_plan(tmp_path)

    def test_a_missing_file_is_reported_before_a_corrupt_one(
            self, bank_plan, tmp_path):
        emit(bank_plan, tmp_path)
        (tmp_path / TRUSTED_IMG).write_bytes(b"XXXX")
        (tmp_path / UNTRUSTED_IMG).unlink()
        message = f"missing {UNTRUSTED_IMG} in {tmp_path}"
        with pytest.raises(FileNotFoundError, match=f"^{re.escape(message)}$"):
            load_plan(tmp_path)

    def test_a_plan_dir_that_is_a_file_misses_the_trusted_image(
            self, tmp_path):
        (tmp_path / "f").write_bytes(b"")
        with pytest.raises(FileNotFoundError, match=f"^missing {TRUSTED_IMG} "):
            load_plan(tmp_path / "f")

    def test_interface_that_is_not_utf8(self, bank_plan, tmp_path):
        emit(bank_plan, tmp_path)
        with open(tmp_path / INTERFACE_FILE, "ab") as fh:
            fh.write(b"\xff\n")
        with pytest.raises(FormatError, match=f"^{INTERFACE_FILE} is not UTF-8 "
                                              "text \\(invalid start byte"):
            load_plan(tmp_path)

    def test_interface_with_crlf_line_ends_loads(self, bank_plan, tmp_path):
        emit(bank_plan, tmp_path)
        iface = tmp_path / INTERFACE_FILE
        iface.write_bytes(iface.read_bytes().replace(b"\n", b"\r\n"))
        assert load_plan(tmp_path).descriptor == bank_plan.descriptor

    def test_corrupt_magic(self, bank_plan, tmp_path):
        emit(bank_plan, tmp_path)
        p = tmp_path / TRUSTED_IMG
        p.write_bytes(b"XXXX" + p.read_bytes()[4:])
        with pytest.raises(FormatError):
            load_plan(tmp_path)

    def test_truncated_image(self, bank_plan, tmp_path):
        emit(bank_plan, tmp_path)
        p = tmp_path / TRUSTED_IMG
        data = p.read_bytes()
        p.write_bytes(data[:-10])
        with pytest.raises(FormatError):
            load_plan(tmp_path)
        # Every cut after the magic runs out of bytes in the middle of a read.
        for n in range(len(MAGIC), len(data)):
            with pytest.raises(FormatError, match="^truncated image file$"):
                decode_image(data[:n])
        with pytest.raises(FormatError, match="^trailing bytes in image file$"):
            decode_image(data + b"\x00")

    def test_assignment_target_must_be_a_variable_or_field(self, tmp_path):
        plan = plan_of("""
@Untrusted
class Main {
    static main() {
        var x: Int = 1;
        x = 2;
    }
}
""")
        assign = named(plan.untrusted_image.classes, "Main").methods[0].body[1]
        assign.target = IntLit(3)
        emit(plan, tmp_path)
        with pytest.raises(FormatError, match="assignment target must be"):
            load_plan(tmp_path)

    def test_images_that_disagree_on_an_annotation(self, bank_plan, tmp_path):
        """Person is @Untrusted (code 1) in untrusted.img's annotation table
        and @Neutral (code 2) in trusted.img's."""
        emit(bank_plan, tmp_path)
        p = tmp_path / TRUSTED_IMG
        data = p.read_bytes()
        body = _strings(data)[1]
        person = _ref(data, "Person") + b"\x01"
        assert data.count(person, body) == 1
        p.write_bytes(data[:body] + data[body:].replace(person, person[:-1]
                                                        + b"\x02"))
        with pytest.raises(FormatError, match="^image files disagree on "
                                              "annotation tables$"):
            load_plan(tmp_path)

    def test_swapped_images(self, bank_plan, tmp_path):
        emit(bank_plan, tmp_path)
        t = (tmp_path / TRUSTED_IMG).read_bytes()
        u = (tmp_path / UNTRUSTED_IMG).read_bytes()
        (tmp_path / TRUSTED_IMG).write_bytes(u)
        (tmp_path / UNTRUSTED_IMG).write_bytes(t)
        with pytest.raises(FormatError):
            load_plan(tmp_path)

    @pytest.mark.parametrize("fixture, loads, runs", [
        ("bank", {"unchanged": 11, "loaded": 126, "FormatError": 2771,
                  "InterfaceMismatch": 92},
         {"same output": 111, "other output": 3, "EpartError": 12}),
        ("every_node", {"unchanged": 13, "loaded": 161, "FormatError": 2752,
                        "InterfaceMismatch": 74},
         {"same output": 93, "other output": 30, "EpartError": 35,
          "runs away": 3}),
    ], ids=["bank", "every_node"])
    def test_single_byte_mutations_load_or_raise_epart_errors(
            self, tmp_path, monkeypatch, fixture, loads, runs):
        """A tampered image never escapes load_plan as another exception,
        and a plan that loads runs to its end, stops with an EpartError or
        runs away: a tampered loop bound can keep a run going for ever, so
        a run stops after 1000 blocks (the untampered runs take 12 and 25).

        A draw of the byte already at its offset edits nothing: it counts
        as unchanged and is neither loaded nor run.  The other counts pin
        what the loader rejects today, and how the plans it loads run:
        with the untampered run's transcript, files and cycles, with other
        output, or to an EpartError.  A stricter loader changes them on
        purpose.  Bank's transcript is empty, so an edited literal
        there can run unchanged; every_node prints and writes some of what
        it computes.  An edit inside a string table entry renames every use
        of that string in its image, so many such edits load and run with
        the original output.
        """
        plan = _fixture_plan(f"{fixture}.ep")
        emit(plan, tmp_path)
        images = {n: (tmp_path / n).read_bytes()
                  for n in (TRUSTED_IMG, UNTRUSTED_IMG)}
        untampered = DualRuntime(plan).run_main()
        expected = (untampered.transcript, untampered.vfs,
                    untampered.total_cycles)
        blocks = 0
        exec_block = Isolate.exec_block

        def capped(iso, stmts, frame):
            nonlocal blocks
            blocks += 1
            if blocks > 1000:
                raise _RunsAway
            return exec_block(iso, stmts, frame)

        monkeypatch.setattr(Isolate, "exec_block", capped)
        outcomes: collections.Counter = collections.Counter()
        ran: collections.Counter = collections.Counter()
        tampered = None  # the one image file that differs from images
        for name, pos, data in _single_byte_mutations(images):
            if data[pos] == images[name][pos]:  # the byte already there
                outcomes["unchanged"] += 1
                continue
            if tampered not in (None, name):
                (tmp_path / tampered).write_bytes(images[tampered])
            (tmp_path / name).write_bytes(data)
            tampered = name
            try:
                loaded = load_plan(tmp_path)
                outcomes["loaded"] += 1
            except EpartError as e:
                outcomes[type(e).__name__] += 1
            else:
                blocks = 0
                try:
                    result = DualRuntime(loaded).run_main()
                except EpartError:
                    ran["EpartError"] += 1
                except _RunsAway:
                    ran["runs away"] += 1
                else:
                    same = (result.transcript, result.vfs,
                            result.total_cycles) == expected
                    ran["same output" if same else "other output"] += 1
        assert (outcomes, ran) == (loads, runs)

    def test_accepted_mutations_encode_back_to_the_same_bytes(
            self, bank_plan, tmp_path):
        """Each value has one encoding: an image that decodes encodes again
        to the bytes it came from.  The tool version is not part of the plan,
        so an edit inside its entry of the string table, the second after
        the side's, is the one exception."""
        emit(bank_plan, tmp_path)
        images = {n: (tmp_path / n).read_bytes()
                  for n in (TRUSTED_IMG, UNTRUSTED_IMG)}
        version_spans = {}
        for name, data in images.items():
            side, version = _strings(data)[0][:2]
            assert version == __version__
            start = len(MAGIC) + 4 + len(_s(side))
            version_spans[name] = range(start, start + len(_s(version)))
        checked = 0
        for name, pos, data in _single_byte_mutations(images):
            if pos in version_spans[name]:
                continue
            try:
                spec, annotations, _ = decode_image(data)
            except FormatError:
                continue
            plan = PartitionPlan(spec, spec, annotations)
            assert encode_image(plan, spec) == data, (name, pos)
            checked += 1
        assert checked > 0

    # The string table the records below read, as in the middle of an image
    # where each of its entries has been read once.  A record names a
    # string by its index here: C 0, f 1, x 2, Int 3.
    _NAMES = ["C", "f", "x", "Int"]

    # codec: a reader of a record that holds it, the bytes before the
    # codec's bytes and the bytes after them
    _RECORDS = {
        "bool": (_get_exprs, _u32(1) + _tag(BoolLit), b""),
        "Visibility": (_get_field, _u32(1) + _u32(3) + b"\x00", b""),
        "Annotation": (_get_class, _u32(0), _u32(0) * 2),
        "Optional[Expr]": (_get_body, _u32(1) + _tag(Return), b""),
        "Optional[TypeRef]": (_get_body, _u32(1) + _tag(VarDecl) + _u32(2),
                              _tag(IntLit) + bytes(8)),
        "TypeRef": (_get_type, b"", b""),
    }

    @pytest.mark.parametrize("codec, good, bad", [
        ("bool", b"\x01", b"\x02"),
        ("Visibility", b"\x01", b"\x02"),
        ("Annotation", b"\x02", b"\x03"),
        ("Optional[Expr]", b"\x00", b"\xff"),
        ("Optional[TypeRef]", b"\x00", b"\x02"),
        ("TypeRef", b"\x03\x00\x00\x00\x00", b"\x03\x00\x00\x00\x02"),
    ])
    def test_a_flag_or_code_byte_has_one_encoding(self, codec, good, bad):
        """A record holding good reads to its end; bad in its place is one
        error naming the byte."""
        get, before, after = self._RECORDS[codec]
        data = before + good + after

        def table() -> _Table:
            t = _Table(self._NAMES)
            t.update(enumerate(self._NAMES))
            return t
        assert get(data, 0, table())[1] == len(data)
        with pytest.raises(FormatError, match=r"^bad \w+ byte \d+$"):
            get(before + bad + after, 0, table())

    @pytest.mark.parametrize("image", [0, 1])  # trusted, untrusted
    def test_a_header_table_names_a_class_once(self, bank_plan, image):
        """An annotation table whose Person pair names Account.  The image
        writer writes it, so that its string table is canonical and the
        pair is what is rejected: with a string table, one use of a string
        cannot be renamed in place."""
        spec = (bank_plan.trusted_image, bank_plan.untrusted_image)[image]
        pairs = [("Account" if name == "Person" else name, annotation)
                 for name, annotation in bank_plan.annotations.items()]
        w = _Writer()
        w += w.strings[spec.side.value]
        w += w.strings[__version__]
        _put_anns(w, pairs)
        _put_classes(w, spec.classes)
        _put_classes(w, spec.proxies)
        with pytest.raises(FormatError, match="^a class name appears twice"):
            decode_image(w.image())

    def test_method_flags_are_at_most_3(self):
        w = _Writer()
        _put_method(w, MethodDecl("m", [], UNIT, [], is_constructor=True,
                                  is_static=True))
        data = bytes(w)
        flags_at = len(data) - 5  # the flags byte, then the body's u32 count
        assert data[flags_at] == 3
        names = list(w.strings)  # m, Unit
        method, end = _get_method(data, 0, _Table(names))
        assert method.is_static and method.is_constructor and end == len(data)
        with pytest.raises(FormatError, match="^bad method flags byte 4$"):
            _get_method(data[:flags_at] + b"\x04" + data[flags_at + 1:], 0,
                        _Table(names))

    def test_roundtrip_with_a_public_field(self, tmp_path):
        plan = _fixture_plan("public_field.ep")
        assert Visibility.PUBLIC in {
            f.visibility for c in plan.trusted_image.classes for f in c.fields}
        _assert_roundtrip(plan, tmp_path)

    def test_descriptor_stub_mismatch(self, bank_plan, tmp_path):
        emit(bank_plan, tmp_path)
        iface = tmp_path / INTERFACE_FILE
        lines = iface.read_text().splitlines()
        dropped = [l for l in lines if "updateBalance" not in l]
        iface.write_text("\n".join(dropped) + "\n")
        with pytest.raises(InterfaceMismatch):
            load_plan(tmp_path)

    def test_a_stub_needs_its_relay_in_the_other_image(self, bank_plan):
        """Account's class moved into the untrusted image: each of its stubs
        there is still the signature of an Account method of the plan, but
        not of one on the far side of its proxy, where its relay would be."""
        t, u = bank_plan.trusted_image, bank_plan.untrusted_image
        moved = dataclasses.replace(
            u, classes=u.classes + [named(t.classes, "Account")])
        kept = dataclasses.replace(
            t, classes=[c for c in t.classes if c.name != "Account"])
        plan = PartitionPlan(kept, moved, bank_plan.annotations)
        with pytest.raises(InterfaceMismatch, match=re.escape(
                "stub Account.Account in the untrusted image is not the "
                "signature of a method of the other image")):
            derive_interface(plan)

    def test_a_stub_names_only_classes_in_the_table(self, bank_plan):
        """updateBalance and its stub both take a Ghost, which no class of
        the table is, so the stub would make a relay without a marshal kind
        for its parameter."""
        t, u = bank_plan.trusted_image, bank_plan.untrusted_image
        account = named(t.classes, "Account")
        methods = [dataclasses.replace(m, params=[Param("v", TypeRef("Ghost"))])
                   if m.name == "updateBalance" else m for m in account.methods]
        proxy = named(u.proxies, "Account")
        haunted = dataclasses.replace(
            proxy, methods=[stub_for(m) for m in methods])
        plan = PartitionPlan(
            dataclasses.replace(t, classes=[
                dataclasses.replace(account, methods=methods)
                if c is account else c for c in t.classes]),
            dataclasses.replace(u, proxies=[
                haunted if p is proxy else p for p in u.proxies]),
            bank_plan.annotations)
        with pytest.raises(InterfaceMismatch, match=re.escape(
                "stub Account.updateBalance names class Ghost, which the "
                "annotation table lacks")):
            derive_interface(plan)


def _plan_files(d: Path) -> dict[str, bytes]:
    return {name: (d / name).read_bytes()
            for name in (TRUSTED_IMG, UNTRUSTED_IMG, INTERFACE_FILE)}


def _outputs(plan):
    result = DualRuntime(plan).run_main()
    return result.transcript, result.vfs, result.metrics_text()


def _emit_over(plan, used_dir: Path, fresh_dir: Path) -> int:
    """emit into a used directory writes what emit writes into a fresh one,
    and the plan loads and runs as the one in memory.  Returns how many of
    the three files were cut shorter."""
    old = {name: len(data) for name, data in _plan_files(used_dir).items()}
    emit(plan, used_dir)
    emit(plan, fresh_dir)
    new = _plan_files(used_dir)
    assert new == _plan_files(fresh_dir)
    assert _outputs(load_plan(used_dir)) == _outputs(plan)
    return sum(old[name] > len(data) for name, data in new.items())


class TestEmitOverAnExistingPlan:
    """emit rewrites an existing plan's files in place; what they hold
    afterwards is exactly what a fresh directory gets."""

    def test_a_smaller_plan_over_a_larger_one(self, tmp_path):
        used = tmp_path / "used"
        emit(_fixture_plan("every_node.ep"), used)
        assert _emit_over(_fixture_plan("bank.ep"), used,
                          tmp_path / "fresh") == 3

    def test_a_corpus_in_sequence_into_one_directory(self, tmp_path):
        used = tmp_path / "used"
        emit(_fixture_plan("every_node.ep"), used)
        cut = 0
        for i, source in enumerate(generate_corpus(20, seed=0)):
            cut += _emit_over(plan_of(source), used, tmp_path / str(i))
        assert cut >= 20

    def test_file_modes(self, bank_plan, tmp_path):
        old_umask = os.umask(0o002)
        try:
            files = emit(bank_plan, tmp_path)
        finally:
            os.umask(old_umask)
        for f in files:
            assert f.stat().st_mode & 0o777 == 0o664
        files[0].chmod(0o600)
        emit(bank_plan, tmp_path)
        assert [f.stat().st_mode & 0o777 for f in files] == [0o600, 0o664, 0o664]

    def test_links_are_written_through(self, bank_plan, tmp_path):
        out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
        out.mkdir()
        elsewhere.mkdir()
        real, linked = elsewhere / "real.img", elsewhere / "linked.txt"
        real.write_bytes(b"x" * 5000)
        linked.write_bytes(b"y" * 5000)
        (out / TRUSTED_IMG).symlink_to(real)
        os.link(linked, out / INTERFACE_FILE)
        emit(bank_plan, out)
        emit(bank_plan, tmp_path / "fresh")
        assert (out / TRUSTED_IMG).is_symlink()
        assert real.read_bytes() == (tmp_path / "fresh" / TRUSTED_IMG).read_bytes()
        assert os.path.samefile(linked, out / INTERFACE_FILE)
        assert linked.read_bytes() == \
            (tmp_path / "fresh" / INTERFACE_FILE).read_bytes()
        assert load_plan(out).descriptor == bank_plan.descriptor


class TestCorpusSoundness:
    def test_partition_soundness_over_corpus(self):
        for source in generate_corpus(25, seed=77):
            plan = compute_images(parse_program(source))
            for cname, ann in plan.annotations.items():
                in_t = named(plan.trusted_image.classes, cname) is not None
                in_u = named(plan.untrusted_image.classes, cname) is not None
                # unreachable classes may be dropped, but a class never
                # lands in the opposite side's image
                if ann == Annotation.TRUSTED:
                    assert not in_u
                elif ann == Annotation.UNTRUSTED:
                    assert not in_t
            assert named(plan.untrusted_image.classes, "Main") is not None
            # a proxy never coexists with its concrete class in one image
            for image in (plan.trusted_image, plan.untrusted_image):
                concrete = {c.name for c in image.classes}
                for proxy in image.proxies:
                    assert proxy.name not in concrete
            # every surviving stub is the signature of its method in the
            # other image, and relays and proxies cross as their annotations
            # say
            derive_interface(plan)


def _image_program(plan, image) -> Program:
    """One image as a program the checker can walk on its own: its classes,
    its proxies, which are already bodiless classes of their annotation, and
    an empty class for every other annotated class, which the image may
    still name in a type.  Neutral classes get no stand-in, since payloads
    decode against their fields."""
    classes = image.classes + image.proxies
    names = {c.name for c in classes}
    classes += [ClassDecl(name, ann, [], [])
                for name, ann in plan.annotations.items()
                if name not in names and ann != Annotation.NEUTRAL]
    return Program(classes)


class TestImagesResolveAlone:
    """Pruning is sound: every image compute_images builds validates on its
    own, given only its own classes and proxies."""

    def test_every_image_validates_on_its_own(self):
        sources = [(FIXTURES / name).read_text(encoding="utf-8")
                   for name in ("bank.ep", "every_node.ep", "public_field.ep")]
        sources += generate_corpus(200, seed=0)
        sources += [generate_synthetic(SyntheticSpec(
            n_classes=n, pct_untrusted=pct, workload=kind, seed=n))
            for n, pct, kind in ((5, 0, "cpu"), (8, 50, "io"), (13, 100, "cpu"),
                                 (40, 50, "cpu"))]
        sources += [STUB_RETURNS_NEUTRAL_SRC, CYCLE_SRC]
        for source in sources:
            plan = compute_images(parse_program(source))
            for image in (plan.trusted_image, plan.untrusted_image):
                report = validate(_image_program(plan, image))
                assert report.violations == [], (image.side, source)


class TestSingleResolution:
    def test_one_checker_walk_per_compute_images(self, bank_source, checker_runs):
        program = parse_program(bank_source)  # not yet checked
        compute_images(program)
        assert len(checker_runs) == 1

    def test_build_call_graph_on_bank(self, bank_program):
        untrusted = build_call_graph(bank_program, Annotation.UNTRUSTED,
                                     [(CONCRETE, "Person", "transfer")])
        assert untrusted.nodes == {
            (CONCRETE, "Main", "main"), (CONCRETE, "Person", "Person"),
            (CONCRETE, "Person", "getAccount"), (CONCRETE, "Person", "transfer"),
            (PROXY, "Account", "Account"), (PROXY, "Account", "updateBalance"),
            (PROXY, "AccountRegistry", "AccountRegistry"),
            (PROXY, "AccountRegistry", "addAccount")}
        assert untrusted.reachable == {
            (CONCRETE, "Person", "transfer"), (CONCRETE, "Person", "getAccount"),
            (PROXY, "Account", "updateBalance")}
        # Edges keep first-call order, each target once.
        assert untrusted.edges[(CONCRETE, "Main", "main")] == [
            (CONCRETE, "Person", "Person"), (CONCRETE, "Person", "transfer"),
            (PROXY, "AccountRegistry", "AccountRegistry"),
            (CONCRETE, "Person", "getAccount"),
            (PROXY, "AccountRegistry", "addAccount")]
        seeds = [(CONCRETE, "Account", "Account"),
                 (CONCRETE, "Account", "updateBalance"),
                 (CONCRETE, "AccountRegistry", "AccountRegistry"),
                 (CONCRETE, "AccountRegistry", "addAccount")]
        trusted = build_call_graph(bank_program, Annotation.TRUSTED, seeds)
        assert trusted.nodes == set(seeds) | {
            (PROXY, "Main", "main"), (PROXY, "Person", "Person"),
            (PROXY, "Person", "getAccount"), (PROXY, "Person", "transfer")}
        assert trusted.reachable == set(seeds)

    def test_build_call_graph_rejects_an_invalid_program(self):
        program = parse_program("""
@Untrusted
class Main {
    static main() { Main.helper(); }
}
""")
        assert not validate(program).ok
        with pytest.raises(UnresolvedCall):
            build_call_graph(program, Annotation.UNTRUSTED,
                             [(CONCRETE, "Main", "main")])

    def test_emitted_images_are_frozen(self, tmp_path):
        source = generate_synthetic(SyntheticSpec(
            n_classes=60, pct_untrusted=50, workload="io", seed=0))
        files = emit(compute_images(parse_program(source)), tmp_path)
        assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in files} == {
            INTERFACE_FILE:
                "eccdf9199c1bdf89e63ab79e287ad1b65f8b6e4cc3b798020a43614d0949448e",
            TRUSTED_IMG:
                "4396e89c13e558c0fc33b6e5fbc2046d97574dfa2348af09d23760468be7623d",
            UNTRUSTED_IMG:
                "155a2ff7f0b2a6cdef31201ed718daa3c1a2b4846d8ed4c0be30d9ba9e7ca166",
        }

    def test_images_with_a_public_field_are_frozen(self, tmp_path):
        """The one fixture with a public field (on a neutral class)."""
        files = emit(_fixture_plan("public_field.ep"), tmp_path)
        assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in files} == {
            INTERFACE_FILE:
                "f1684494502b4a8e6da8024e6aca53289df08eb5e345a535d5317cc622c9fc02",
            TRUSTED_IMG:
                "fd15768f71cd6d559e85992683a0280a04215372e9e4bd397827e900ccc36833",
            UNTRUSTED_IMG:
                "d9ff56445f320bf4c3b6f26b41d22cf075267ae6de929bbcf6a2e9d8a24a7357",
        }

    def test_fixtures_cover_every_declaration_variant(self):
        """Together the fixtures store every annotation, visibility and
        (constructor, static) pair and both proxy directions.  Their
        derived relays take every marshal kind as a parameter (a Unit
        parameter does not validate) and as a return, and cross in both
        directions: that part covers derive_interface, since an image
        stores no relay."""
        seen = collections.defaultdict(set)
        for name in ("bank.ep", "every_node.ep", "public_field.ep"):
            plan = _fixture_plan(name)
            for image in (plan.trusted_image, plan.untrusted_image):
                for c in image.classes:
                    seen["annotation"].add(c.annotation)
                    seen["visibility"] |= {f.visibility for f in c.fields}
                    seen["flags"] |= {(m.is_constructor, m.is_static)
                                      for m in c.methods}
                for rel in image.relays:
                    seen["param"] |= set(rel.param_kinds)
                    seen["return"].add(rel.return_kind)
                    seen["relay"].add(rel.direction)
                seen["proxy"] |= {relay_direction(p.annotation)
                                  for p in image.proxies}
        assert seen == {
            "annotation": set(Annotation),
            "visibility": set(Visibility),
            "flags": {(True, False), (False, True), (False, False)},
            "param": set(MarshalKind) - {MarshalKind.UNIT},
            "return": set(MarshalKind),
            "relay": {"ecall", "ocall"},
            "proxy": {"ecall", "ocall"},
        }

    def test_images_of_every_node_kind_are_frozen(self, tmp_path):
        """The fixture holds all 12 expression and 6 statement kinds."""
        source = (FIXTURES / "every_node.ep").read_text(encoding="utf-8")
        plan = compute_images(parse_program(source))
        assert _node_classes(
            [plan.trusted_image.classes, plan.untrusted_image.classes],
            set()) >= set(_EXPR_TAGS) | set(_STMT_TAGS)
        files = emit(plan, tmp_path)
        assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in files} == {
            INTERFACE_FILE:
                "1e853a3223318bc56cc7c56ff0443c7d891e9400f360b534507ff94357b0a085",
            TRUSTED_IMG:
                "2ed0a35a826e66544c1f005177b2d2bc7ffdb27e4ada5cb9aea3b188fd39507c",
            UNTRUSTED_IMG:
                "9a678be3310b0f9a7fa91f471286d9709a953e6704723a245f5e4735e5d36b85",
        }
