import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from epart._version import __version__
from epart.cli import main
from epart.dsl import parse_program
from epart.dsl.ast import INT, Annotation, ClassDecl, FieldDecl, Param, TypeRef
from epart.partition import compute_images, emit, load_plan, whole_program_plan
from epart.partition.emit import INTERFACE_FILE, TRUSTED_IMG, UNTRUSTED_IMG
from epart.partition.image import MAGIC, encode_image
from epart.partition.model import stub_for
from epart.partition.plan import PartitionPlan

from test_partition import _ref, _s, _strings, _u32, named

DIVERGENT_SRC = """
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


# An image names a string by its index in the image's string table.  Both
# bank images start their tables with the side, the tool version, then the
# annotation table's names: Account is entry 2, AccountRegistry entry 3.
_ACCOUNT_NAME = b"\x02\x00\x00\x00"
_NO_FIELDS = b"\x00\x00\x00\x00"
# Account's proxy record in bank's untrusted.img: its name, the @Trusted
# annotation code and no fields; its two stubs follow, the constructor first.
_ACCOUNT_PROXY = _ACCOUNT_NAME + b"\x00" + _NO_FIELDS
# AccountRegistry's record in bank's trusted.img up to its one field's type:
# the name, @Trusted, one field, reg (entry 16) of type List (entry 17) with
# an element type, and that element, Account, with no element of its own.
_REGISTRY_REG = (b"\x03\x00\x00\x00\x00" + b"\x01\x00\x00\x00"
                 + b"\x10\x00\x00\x00" + b"\x11\x00\x00\x00\x01"
                 + _ACCOUNT_NAME + b"\x00")


# Edits of bank's untrusted.img that leave its string table not canonical.

def _past_the_table(data: bytes) -> bytes:
    """The side's index, the body's first u32, one past the table."""
    strings, body = _strings(data)
    return data[:body] + _u32(len(strings)) + data[body + 4:]


def _unused_entry(data: bytes) -> bytes:
    """A last entry, Ghost, that the body never names."""
    strings, body = _strings(data)
    return (data[:len(MAGIC)] + _u32(len(strings) + 1)
            + data[len(MAGIC) + 4:body] + _s("Ghost") + data[body:])


def _swapped_first_uses(data: bytes) -> bytes:
    """The header's first two pairs, Account then AccountRegistry, in the
    other order: entry 3 is then used before entry 2."""
    at = _strings(data)[1] + 12  # after the side, the version and a count
    pairs = _ACCOUNT_NAME + b"\x00" + _u32(3) + b"\x00"
    assert data[at:at + 10] == pairs
    return data[:at] + pairs[5:] + pairs[:5] + data[at + 10:]


@pytest.fixture
def bank_dir(bank_source, tmp_path):
    src = tmp_path / "bank.ep"
    src.write_text(bank_source)
    plan = tmp_path / "plan"
    assert main(["partition", str(src), "-o", str(plan)]) == 0
    return src, plan


class TestPartitionCommand:
    def test_writes_plan(self, bank_dir, capsys):
        _, plan = bank_dir
        for name in (TRUSTED_IMG, UNTRUSTED_IMG, INTERFACE_FILE):
            assert (plan / name).is_file()

    def test_summary_output(self, bank_source, tmp_path, capsys):
        src = tmp_path / "bank.ep"
        src.write_text(bank_source)
        assert main(["partition", str(src), "-o", str(tmp_path / "p")]) == 0
        out = capsys.readouterr().out
        assert "trusted     2 classes: Account, AccountRegistry" in out
        assert "untrusted   2 classes: Person, Main" in out
        assert "neutral     0 classes: -" in out
        assert f"wrote {TRUSTED_IMG}, {UNTRUSTED_IMG}, {INTERFACE_FILE}" in out

    def test_missing_source(self, tmp_path, capsys):
        assert main(["partition", str(tmp_path / "no.ep"),
                     "-o", str(tmp_path / "p")]) == 1
        assert "no.ep" in capsys.readouterr().err

    def test_validation_failure_exits_2(self, tmp_path, capsys):
        src = tmp_path / "bad.ep"
        src.write_text("""
@Trusted
class Main {
    Main() { }
    static main() { }
}
""")
        assert main(["partition", str(src), "-o", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err
        assert "MAIN_PLACEMENT" in err
        assert "violation" in err

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        src = tmp_path / "bad.ep"
        src.write_text("class {")
        assert main(["partition", str(src), "-o", str(tmp_path / "p")]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_deterministic_output(self, bank_source, tmp_path):
        src = tmp_path / "bank.ep"
        src.write_text(bank_source)
        for d in ("a", "b"):
            assert main(["partition", str(src), "-o", str(tmp_path / d)]) == 0
        for name in (TRUSTED_IMG, UNTRUSTED_IMG, INTERFACE_FILE):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestRunCommand:
    def test_transcript_and_metrics(self, bank_dir, tmp_path, capsys):
        _, plan = bank_dir
        metrics = tmp_path / "m.txt"
        assert main(["run", str(plan), "--metrics", str(metrics)]) == 0
        text = metrics.read_text()
        assert "[trusted]" in text and "[untrusted]" in text
        assert "ecalls = 6" in text
        assert "total_simulated_cycles = 79287" in text

    def test_trace_goes_to_stderr(self, bank_dir, capsys):
        _, plan = bank_dir
        assert main(["run", str(plan), "--trace", "transitions"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("1 ECALL ctor Account.Account")

    def test_dump_fs(self, tmp_path, capsys):
        src = tmp_path / "w.ep"
        src.write_text("""
@Untrusted
class Main {
    static main() {
        file_write("/data/report.txt", "hi");
        print("ok");
    }
}
""")
        plan = tmp_path / "p"
        assert main(["partition", str(src), "-o", str(plan)]) == 0
        capsys.readouterr()
        fs = tmp_path / "fs"
        assert main(["run", str(plan), "--dump-fs", str(fs)]) == 0
        assert capsys.readouterr().out == "ok\n"
        assert (fs / "data" / "report.txt").read_text() == "hi"

    def test_program_argv(self, tmp_path, capsys):
        src = tmp_path / "a.ep"
        src.write_text("""
@Untrusted
class Main {
    static main(args: List[Str]) {
        print(args.get(1));
    }
}
""")
        plan = tmp_path / "p"
        assert main(["partition", str(src), "-o", str(plan)]) == 0
        capsys.readouterr()
        assert main(["run", str(plan), "prog", "world"]) == 0
        assert capsys.readouterr().out == "world\n"

    def test_bad_gc_scan_flag(self, bank_dir, capsys):
        _, plan = bank_dir
        assert main(["run", str(plan), "--gc-scan", "sometimes"]) == 1
        assert "every-k" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [
        "every-k=٣",  # a digit of another script
        "every-k=" + "9" * 5000,  # more digits than int() reads
    ], ids=["arabic-indic-digit", "5000-digits"])
    def test_gc_scan_takes_only_ascii_digits_int_reads(self, bank_dir, capsys,
                                                       value):
        _, plan = bank_dir
        assert main(["run", str(plan), "--gc-scan", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"bad --gc-scan value {value!r}, "
                                "expected every-k=<positive int>\n")

    def test_live_gc_is_an_alias(self, bank_dir, tmp_path, capsys):
        _, plan = bank_dir
        outputs = []
        for flags in ([], ["--live-gc"], ["--deterministic-gc"]):
            metrics = tmp_path / f"m{len(outputs)}.txt"
            capsys.readouterr()
            assert main(["run", str(plan), "--trace", "transitions",
                         "--metrics", str(metrics)] + flags) == 0
            captured = capsys.readouterr()
            outputs.append((captured.out, captured.err, metrics.read_text()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_missing_plan_dir(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope")]) == 1

    def test_tampered_image(self, bank_dir, capsys):
        _, plan = bank_dir
        img = plan / TRUSTED_IMG
        img.write_bytes(img.read_bytes()[:-6])
        assert main(["run", str(plan)]) == 1
        assert "bad plan" in capsys.readouterr().err

    @pytest.mark.parametrize("image, old, new, reason", [
        # a list-element presence flag that is neither 0 nor 1
        (TRUSTED_IMG, _REGISTRY_REG, _REGISTRY_REG[:-1] + b"\x02",
         "bad flag byte 2"),
        # an annotation code past the three annotations, in the header's
        # first pair; the id names the class, since the bytes now hold
        # Account's string-table index rather than its text
        pytest.param(UNTRUSTED_IMG, _ACCOUNT_NAME + b"\x00",
                     _ACCOUNT_NAME + b"\x03", "bad annotation byte 3",
                     id="untrusted.img-Account\x00-Account\x03-"
                        "bad annotation byte 3"),
        # a class name that is not UTF-8, in the string table
        (UNTRUSTED_IMG, b"\x06\x00\x00\x00Person", b"\x06\x00\x00\x00Pers\xffn",
         "bad string in image: 'utf-8' codec can't decode byte 0xff in "
         "position 4: invalid start byte"),
    ])
    def test_non_canonical_byte_or_stray_relay_is_a_bad_plan(
            self, bank_dir, capsys, image, old, new, reason):
        _, plan = bank_dir
        img = plan / image
        data = img.read_bytes()
        assert old in data
        img.write_bytes(data.replace(old, new, 1))
        capsys.readouterr()
        assert main(["run", str(plan)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bad plan: {reason}\n"

    def test_a_proxy_renamed_to_a_class_the_table_lacks_is_a_bad_plan(
            self, bank_dir, capsys):
        """Account's proxy and its constructor stub renamed to Accoumt, a
        class of the same length the table lacks, whose stubs would make
        stray relays.  An image names a string by its table entry, so the
        edit renames Person's field account, the entry of that length, to
        Accoumt, and points the proxy and its constructor stub at it."""
        _, plan = bank_dir
        img = plan / UNTRUSTED_IMG
        data = img.read_bytes()
        field = _ref(data, "account")
        proxy = _ACCOUNT_PROXY + _u32(2) + _ACCOUNT_NAME  # 2 stubs, the first
        assert data.count(proxy) == data.count(_s("account")) == 1
        img.write_bytes(data.replace(_s("account"), _s("Accoumt")).replace(
            proxy, field + b"\x00" + _NO_FIELDS + _u32(2) + field))
        assert self._bad_plan(plan, capsys) == (
            "bad plan: proxy Accoumt in the untrusted image is not @Trusted "
            "in its record and the annotation table\n")

    @pytest.mark.parametrize("edit, reason", [
        (_past_the_table, "string index 27 is past the table's 27 entries"),
        (lambda data: data.replace(_s("Person"), _s("Account"), 1),
         "string table entry 4 repeats entry 2"),
        (_unused_entry, "string table entry 27 is not used"),
        (_swapped_first_uses, "string table entry 3 is used before entry 2"),
    ], ids=["past-the-table", "repeated", "unused", "out-of-order"])
    def test_a_string_table_that_is_not_canonical_is_a_bad_plan(
            self, bank_dir, capsys, edit, reason):
        """Bank's untrusted.img holds 27 strings.  Each has one entry, each
        entry is used, and the entries are in the order of their first use,
        so an index names the one string it can.  An entry that is not
        UTF-8 is the Pers\\xffn case above."""
        _, plan = bank_dir
        img = plan / UNTRUSTED_IMG
        data = img.read_bytes()
        assert len(_strings(data)[0]) == 27
        tampered = edit(data)
        assert tampered != data
        img.write_bytes(tampered)
        assert self._bad_plan(plan, capsys) == f"bad plan: {reason}\n"

    @pytest.mark.parametrize("old, new, reason", [
        (b"print", b"prinx", "bad builtin 'prinx'"),
        (b"\x01\x00\x00\x00+", b"\x01\x00\x00\x00^", "bad binary operator '^'"),
        (b"\x01\x00\x00\x00-", b"\x01\x00\x00\x00!", "bad unary operator '!'"),
    ])
    def test_an_unknown_builtin_or_operator_is_a_bad_plan(
            self, tmp_path, capsys, old, new, reason):
        src = tmp_path / "p.ep"
        src.write_text("@Untrusted\nclass Main {\n"
                       "    static main() { print(-1 + 2); }\n}\n")
        plan = tmp_path / "plan"
        assert main(["partition", str(src), "-o", str(plan)]) == 0
        img = plan / UNTRUSTED_IMG
        data = img.read_bytes()
        assert data.count(old) == 1
        img.write_bytes(data.replace(old, new))
        capsys.readouterr()
        assert main(["run", str(plan)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bad plan: {reason}\n"

    @pytest.mark.parametrize("name, old, new", [
        (TRUSTED_IMG, __version__, "9.9.9"),
        (UNTRUSTED_IMG, __version__, "9.9.9"),
        (INTERFACE_FILE, f"# epart {__version__} interface",
         "# epart 7.7.7 interface"),
    ])
    def test_plan_from_another_tool_version_is_a_bad_plan(
            self, bank_dir, capsys, name, old, new):
        _, plan = bank_dir
        path = plan / name
        if name == INTERFACE_FILE:
            text = path.read_text()
            assert text.startswith(old + "\n")
            path.write_text(text.replace(old, new, 1))
            reason = f"{name} header {new!r} is not {old!r}"
        else:
            def s(v):  # a length-prefixed image string
                return len(v).to_bytes(4, "little") + v.encode()
            data = path.read_bytes()
            assert s(old) in data
            path.write_bytes(data.replace(s(old), s(new), 1))
            reason = f"{name} was written by epart {new!r}, not {old}"
        capsys.readouterr()
        assert main(["run", str(plan)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bad plan: {reason}\n"

    @staticmethod
    def _bad_plan(plan, capsys) -> str:
        """Run a tampered plan: exit 1 and no stdout.  Returns stderr."""
        capsys.readouterr()
        assert main(["run", str(plan)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("old, new", [
        ("(ser,prim)", "(prim,prim)"),                  # a marshal kind
        ("ecall Account.Account(", "ocall Account.Account("),  # a direction
        ("-> unit\necall AccountRegistry.AccountRegistry() -> unit\n",
         "-> unit\n"),                                   # a record dropped
        ("(href) -> unit\n",
         "(href) -> unit\nocall Ghost.haunt(prim) -> unit\n"),  # an extra record
        ("(href) -> unit\n", "(href) -> unit\n# a note\n"),    # a comment
        ("(href) -> unit\n", "(href) -> unit\n\n"),           # a blank line
        ("interface\n", "interface\n\n"),              # a blank line in front
        ("ecall Account.Account(ser,prim) -> unit\n"
         "ecall Account.updateBalance(prim) -> unit\n",
         "ecall Account.updateBalance(prim) -> unit\n"
         "ecall Account.Account(ser,prim) -> unit\n"),  # two records swapped
    ], ids=["marshal-kind", "direction", "dropped", "extra", "comment",
            "blank-line", "blank-line-in-front", "reordered"])
    def test_an_interface_that_is_not_the_images_relays_is_a_bad_plan(
            self, bank_dir, capsys, old, new):
        _, plan = bank_dir
        path = plan / INTERFACE_FILE
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        assert self._bad_plan(plan, capsys) == \
            f"bad plan: {INTERFACE_FILE} does not list the images' relays\n"

    def test_a_class_renamed_in_both_annotation_tables_is_a_bad_plan(
            self, bank_program, tmp_path, capsys):
        """Account renamed Accoumt in both images' annotation tables, which
        agree, while the declaration in the trusted image keeps its name.
        The image writer writes both images: with a string table, the one
        use of Account in a header cannot be renamed in place."""
        plan = compute_images(bank_program)
        emit(plan, tmp_path)
        renamed = {("Accoumt" if name == "Account" else name): annotation
                   for name, annotation in plan.annotations.items()}
        tampered = PartitionPlan(plan.trusted_image, plan.untrusted_image,
                                 renamed)
        for name, spec in ((TRUSTED_IMG, plan.trusted_image),
                           (UNTRUSTED_IMG, plan.untrusted_image)):
            (tmp_path / name).write_bytes(encode_image(tampered, spec))
        assert self._bad_plan(tmp_path, capsys) == (
            "bad plan: class Account in the trusted image is not in the "
            "annotation table as declared\n")

    @pytest.mark.parametrize("image, reason", [
        (UNTRUSTED_IMG, "proxy Account in the untrusted image is not @Trusted "
                        "in its record and the annotation table"),
    ], ids=["proxy"])
    def test_a_direction_against_the_annotation_is_a_bad_plan(
            self, bank_dir, capsys, image, reason):
        """Account's proxy record in untrusted.img with its annotation byte
        flipped to @Untrusted, which would make it an ocall proxy.  An
        image stores no relay, so a proxy's is the one direction to flip."""
        _, plan = bank_dir
        img = plan / image
        data = img.read_bytes()
        assert data.count(_ACCOUNT_PROXY) == 1
        img.write_bytes(data.replace(_ACCOUNT_PROXY,
                                     _ACCOUNT_NAME + b"\x01" + _NO_FIELDS))
        assert self._bad_plan(plan, capsys) == f"bad plan: {reason}\n"

    def test_a_plan_with_the_old_magic_is_a_bad_plan(self, bank_dir, capsys):
        """Images of the earlier formats: EPIMG\\x01 stored their relays,
        entry points and a class-id table, EPIMG\\x02 each proxy as a record
        of its own, EPIMG\\x03 each string at each of its uses.  This tool
        reads no such image."""
        _, plan = bank_dir
        img = plan / TRUSTED_IMG
        data = img.read_bytes()
        for old in (b"EPIMG\x01", b"EPIMG\x02", b"EPIMG\x03"):
            img.write_bytes(data.replace(MAGIC, old, 1))
            assert self._bad_plan(plan, capsys) == (
                "bad plan: bad magic: not an image file or unsupported version\n")

    def test_a_trusted_class_in_the_untrusted_image_is_a_bad_plan(
            self, bank_program, tmp_path, capsys):
        """Account moved into untrusted.img, its proxy dropped and the
        interface left as it was: every name resolves, but the ledger would
        run outside the enclave."""
        plan = compute_images(bank_program)
        t, u = plan.trusted_image, plan.untrusted_image
        account = named(t.classes, "Account")
        t.classes.remove(account)
        u.classes.append(account)
        u.proxies = [p for p in u.proxies if p.name != "Account"]
        emit(plan, tmp_path)
        assert self._bad_plan(tmp_path, capsys) == \
            "bad plan: class Account is @Trusted but in the untrusted image\n"

    @pytest.mark.parametrize("change", [{"name": "Persom"},
                                        {"is_constructor": False}],
                             ids=["renamed", "unflagged"])
    def test_a_constructor_flag_against_the_name_is_a_bad_plan(
            self, bank_program, tmp_path, capsys, change):
        """The method table finds a constructor by its name, while the
        relays and the return check read its flag, so a renamed constructor
        would be skipped, and an unflagged one would run as a plain method.
        Source cannot say either: a method is a constructor exactly when it
        is named as its class."""
        plan = compute_images(bank_program)
        classes = plan.untrusted_image.classes
        person = next(c for c in classes if c.name == "Person")
        methods = [dataclasses.replace(m, **change) if m.is_constructor else m
                   for m in person.methods]
        classes[classes.index(person)] = dataclasses.replace(person,
                                                             methods=methods)
        emit(plan, tmp_path)
        name = change.get("name", "Person")
        assert self._bad_plan(tmp_path, capsys) == (
            f"bad plan: the constructor flag of Person.{name} disagrees with "
            "its name\n")

    def test_an_ocall_relay_in_the_trusted_image_is_a_bad_plan(
            self, bank_program, tmp_path, capsys):
        """The enclave baseline holds the @Untrusted Person, so an ocall proxy
        of Person in untrusted.img agrees with Person's annotation, and its
        stub with Person.transfer in the trusted image.  But an ocall leaves
        the trusted image, so the relay the stub makes would be an ocall into
        the trusted image."""
        plan = whole_program_plan(bank_program, enclave=True)
        transfer = named(plan.trusted_image.classes, "Person").method("transfer")
        plan.untrusted_image.proxies.append(
            ClassDecl("Person", Annotation.UNTRUSTED, [], [stub_for(transfer)]))
        emit(plan, tmp_path)
        assert self._bad_plan(tmp_path, capsys) == (
            "bad plan: proxy Person in the untrusted image is not @Trusted in "
            "its record and the annotation table\n")

    def test_a_proxy_with_a_field_is_a_bad_plan(
            self, bank_program, tmp_path, capsys):
        """A proxy's only state is the object hash: Account's balance field
        on its proxy in untrusted.img would be state outside the enclave."""
        plan = compute_images(bank_program)
        account = named(plan.trusted_image.classes, "Account")
        named(plan.untrusted_image.proxies, "Account").fields = account.fields
        emit(plan, tmp_path)
        assert self._bad_plan(tmp_path, capsys) == \
            "bad plan: proxy Account in the untrusted image has fields\n"

    @pytest.mark.parametrize("change", ["body", "static"])
    def test_a_stub_with_a_body_or_another_flag_is_a_bad_plan(
            self, bank_program, tmp_path, capsys, change):
        """A stub is its method without the body: updateBalance's stub with
        the method's body, or flagged static, is not the stub_for of it."""
        plan = compute_images(bank_program)
        method = named(plan.trusted_image.classes, "Account").method(
            "updateBalance")
        stub = named(plan.untrusted_image.proxies, "Account").method(
            "updateBalance")
        if change == "body":
            stub.body = method.body
        else:
            stub.is_static = True
        emit(plan, tmp_path)
        assert self._bad_plan(tmp_path, capsys) == (
            "bad plan: stub Account.updateBalance in the untrusted image is not "
            "the signature of a method of the other image\n")

    def test_a_relay_that_is_not_its_methods_relay_is_a_bad_plan(
            self, tmp_path, capsys):
        """Counter.next returns an Int, so its relay returns prim.  Its stub
        in untrusted.img turned to return Unit, and the interface to match
        the unit relay that stub makes, still loads every name and
        direction, but main would add 1 to a unit result."""
        src = tmp_path / "c.ep"
        src.write_text("""
@Trusted
class Counter {
    n: Int;
    Counter() { }
    next() -> Int { this.n = this.n + 1; return this.n; }
}
@Untrusted
class Main {
    static main() {
        var c: Counter = new Counter();
        var x: Int = c.next();
        print(x + 1);
    }
}
""")
        plan = tmp_path / "plan"
        assert main(["partition", str(src), "-o", str(plan)]) == 0
        img = plan / UNTRUSTED_IMG
        data = img.read_bytes()
        # next's stub: its name, no parameters, then its return type
        stub = _ref(data, "next") + _u32(0) + _ref(data, "Int")
        assert data.count(stub) == 1
        img.write_bytes(data.replace(stub, stub[:-4] + _ref(data, "Unit")))
        path = plan / INTERFACE_FILE
        text = path.read_text()
        assert text.count("next() -> prim") == 1
        path.write_text(text.replace("next() -> prim", "next() -> unit"))
        assert self._bad_plan(plan, capsys) == (
            "bad plan: stub Counter.next in the untrusted image is not the "
            "signature of a method of the other image\n")

    def test_a_stub_naming_a_missing_class_inside_a_list_is_a_bad_plan(
            self, tmp_path, capsys):
        """Vault.keep and its stub retyped to take List[Ghost], which no
        class of the annotation table backs.  The outer name, List, is a
        builtin type, so only a check that walks the element finds Ghost."""
        plan = compute_images(parse_program("""
@Trusted
class Vault {
    Vault() { }
    keep(xs: List[Int]) -> Int { return 1; }
}
@Untrusted
class Main {
    static main() {
        var v: Vault = new Vault();
        var xs: List[Int] = [];
        print(v.keep(xs));
    }
}
"""))
        ghosts = [Param("xs", TypeRef("List", TypeRef("Ghost")))]
        named(plan.trusted_image.classes, "Vault").method("keep").params = ghosts
        named(plan.untrusted_image.proxies, "Vault").method("keep").params = ghosts
        emit(plan, tmp_path)
        assert self._bad_plan(tmp_path, capsys) == (
            "bad plan: stub Vault.keep names class Ghost, which the annotation "
            "table lacks\n")

    def test_a_stub_checked_against_another_record_of_its_class_is_a_bad_plan(
            self, bank_program, tmp_path, capsys):
        """A second Account record in trusted.img, without updateBalance,
        which updateBalance's stub would be checked against if it loaded.
        An image holds one record per class name, so the decoder refuses it
        before any stub is checked."""
        plan = compute_images(bank_program)
        classes = plan.trusted_image.classes
        account = named(classes, "Account")
        classes.append(dataclasses.replace(account, methods=[
            m for m in account.methods if m.name != "updateBalance"]))
        emit(plan, tmp_path)
        assert self._bad_plan(tmp_path, capsys) == (
            "bad plan: class Account has two records in the image\n")

    @pytest.mark.parametrize("side", ["classes", "proxies"])
    def test_a_class_with_two_records_in_one_image_is_a_bad_plan(
            self, bank_program, tmp_path, capsys, side):
        """trusted.img repeats Account with one more field, which every stub
        still checks against, or untrusted.img holds a class record of
        Account beside its proxy.  Before the one-record rule the first plan
        ran, and the later record silently won."""
        plan = compute_images(bank_program)
        if side == "classes":
            classes = plan.trusted_image.classes
            account = named(classes, "Account")
            classes.append(dataclasses.replace(
                account, fields=[*account.fields, FieldDecl("spare", INT)]))
        else:
            account = named(plan.trusted_image.classes, "Account")
            plan.untrusted_image.classes.append(account)
        emit(plan, tmp_path)
        assert self._bad_plan(tmp_path, capsys) == (
            "bad plan: class Account has two records in the image\n")

    @pytest.mark.parametrize("member, reason", [
        ("method", "method updateBalance declared twice in Account"),
        ("field", "field owner declared twice in Account"),
        ("parameter", "parameter s declared twice"),
    ], ids=["method", "field", "parameter"])
    def test_a_member_named_twice_in_a_record_is_a_bad_plan(
            self, bank_program, tmp_path, capsys, member, reason):
        """trusted.img's Account repeats updateBalance with an empty body,
        or its field owner, or its constructor names both parameters s: the
        parser's errors for such source.  Before the decoder refused them,
        the repeated method was dead bytes an edit could change unseen, and
        a repeated field still counted in object sizes.  The one stderr
        line is all there is: no traceback."""
        plan = compute_images(bank_program)
        classes = plan.trusted_image.classes
        account = named(classes, "Account")
        if member == "method":
            method = account.method("updateBalance")
            changed = dataclasses.replace(account, methods=[
                *account.methods, dataclasses.replace(method, body=[])])
        elif member == "field":
            changed = dataclasses.replace(
                account, fields=[*account.fields, account.fields[0]])
        else:
            ctor = account.method("Account")
            params = [ctor.params[0], dataclasses.replace(
                ctor.params[1], name=ctor.params[0].name)]
            changed = dataclasses.replace(account, methods=[
                dataclasses.replace(m, params=params) if m is ctor else m
                for m in account.methods])
        classes[classes.index(account)] = changed
        emit(plan, tmp_path)
        assert self._bad_plan(tmp_path, capsys) == f"bad plan: {reason}\n"

    def test_an_emitted_enclave_baseline_loads(self, bank_program, tmp_path, capsys):
        """whole_program_plan(enclave=True) puts @Untrusted classes in the
        trusted image on purpose."""
        plan = whole_program_plan(bank_program, enclave=True)
        emit(plan, tmp_path)
        assert load_plan(tmp_path).annotations == plan.annotations
        capsys.readouterr()
        assert main(["run", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        src = tmp_path / "d.ep"
        src.write_text("""
@Untrusted
class Main {
    static main() {
        print("before");
        var z: Int = 0;
        print(1 / z);
    }
}
""")
        plan = tmp_path / "p"
        assert main(["partition", str(src), "-o", str(plan)]) == 0
        capsys.readouterr()
        assert main(["run", str(plan)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "before\n"  # partial transcript still emitted
        assert "runtime error: division by zero" in captured.err
        assert "at Main.main" in captured.err


class TestRunUnpartitioned:
    def test_matches_partitioned_transcript(self, bank_source, bank_dir,
                                            tmp_path, capsys):
        src, plan = bank_dir
        capsys.readouterr()
        assert main(["run", str(plan)]) == 0
        part_out = capsys.readouterr().out
        assert main(["run-unpartitioned", str(src)]) == 0
        assert capsys.readouterr().out == part_out

    def test_metrics_report_shims(self, tmp_path, capsys):
        src = tmp_path / "w.ep"
        src.write_text("""
@Untrusted
class Main {
    static main() {
        print("hello");
    }
}
""")
        metrics = tmp_path / "m.txt"
        assert main(["run-unpartitioned", str(src),
                     "--metrics", str(metrics)]) == 0
        assert capsys.readouterr().out == "hello\n"
        assert "shim_ocalls = 1" in metrics.read_text()

    def test_missing_read_faults_inside_the_shim(self, tmp_path, capsys):
        src = tmp_path / "r.ep"
        src.write_text("""
@Untrusted
class Main {
    static main() {
        var s: Str = file_read("/data/none.txt");
    }
}
""")
        assert main(["run-unpartitioned", str(src)]) == 1
        assert capsys.readouterr().err == (
            "runtime error: file_read of missing path: /data/none.txt\n"
            "  -- ocall boundary __host__.file_read --\n"
            "  at Main.main\n")


    def test_runtime_error_keeps_transcript(self, tmp_path, capsys):
        src = tmp_path / "d.ep"
        src.write_text("""
@Untrusted
class Main {
    static main() {
        print("before");
        var x: Int = 1 / 0;
    }
}
""")
        assert main(["run-unpartitioned", str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "before\n"
        assert captured.err == ("runtime error: division by zero\n"
                                "  at Main.main\n")


class TestCompareCommand:
    def test_pass(self, bank_source, tmp_path, capsys):
        src = tmp_path / "bank.ep"
        src.write_text(bank_source)
        assert main(["compare", str(src)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS:")
        assert "ecalls=6 ocalls=0 shim_ocalls=0" in out

    def test_fail_on_divergent_plan(self, tmp_path, capsys):
        # partition a modified program, then compare the original source
        # against that stale plan: the transcripts differ
        src = tmp_path / "p.ep"
        src.write_text(DIVERGENT_SRC)
        plan = tmp_path / "plan"
        assert main(["partition", str(src), "-o", str(plan)]) == 0
        ref = tmp_path / "ref.ep"
        ref.write_text(DIVERGENT_SRC.replace("t.bump(b);", "b.add(10);"))
        capsys.readouterr()
        assert main(["compare", str(ref), "--plan", str(plan)]) == 1
        out = capsys.readouterr().out
        assert "FAIL: transcript line 0" in out
        assert "reference '11'" in out and "partitioned '1'" in out

    def test_copy_semantics_still_pass_by_themselves(self, tmp_path, capsys):
        # the divergent fixture is deterministic per mode, so a fresh
        # partition of the same source compares unequal by design
        src = tmp_path / "p.ep"
        src.write_text(DIVERGENT_SRC)
        assert main(["compare", str(src)]) == 1
        assert "FAIL: transcript line 0" in capsys.readouterr().out

    FAULT_SRC = """
@Untrusted
class Main {
    static main() {
        print("before");
        var x: Int = 1 / 0;
    }
}
"""

    def test_identical_faults_pass(self, tmp_path, capsys):
        src = tmp_path / "f.ep"
        src.write_text(self.FAULT_SRC)
        assert main(["compare", str(src)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "PASS: 1 transcript line(s) and 0 file(s) match",
            "both runs stop with: runtime error: division by zero",
            "ecalls=0 ocalls=0 shim_ocalls=0",
        ]

    def test_fault_on_one_side_fails(self, tmp_path, capsys):
        # the plan comes from a version of the program without the fault
        clean = tmp_path / "clean.ep"
        clean.write_text(self.FAULT_SRC.replace("1 / 0", "1 / 1"))
        plan = tmp_path / "plan"
        assert main(["partition", str(clean), "-o", str(plan)]) == 0
        src = tmp_path / "f.ep"
        src.write_text(self.FAULT_SRC)
        capsys.readouterr()
        assert main(["compare", str(src), "--plan", str(plan)]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            "FAIL: reference stopped with 'runtime error: division by zero', "
            "partitioned completed\n")
        assert "Traceback" not in captured.err

    def test_fail_on_a_diverging_file(self, tmp_path, capsys):
        # the enclave changes its copy of a neutral Box; main writes its own
        src = tmp_path / "f.ep"
        src.write_text("""
@Neutral
class Box {
    s: Str;
    Box() { this.s = "original"; }
    set(v: Str) { this.s = v; }
    get() -> Str { return this.s; }
}
@Trusted
class T {
    T() { }
    stamp(b: Box) { b.set("changed-inside-the-enclave-and-long"); }
}
@Untrusted
class Main {
    static main() {
        var b: Box = new Box();
        var t: T = new T();
        t.stamp(b);
        file_write("/out.txt", b.get());
    }
}
""")
        capsys.readouterr()
        assert main(["compare", str(src)]) == 1
        assert capsys.readouterr().out == (
            "FAIL: file /out.txt: reference 'changed-inside-the-enclave-and-l...', "
            "partitioned 'original'\n")

    def test_bad_plan_rejected(self, bank_source, tmp_path, capsys):
        src = tmp_path / "bank.ep"
        src.write_text(bank_source)
        plan = tmp_path / "plan"
        assert main(["partition", str(src), "-o", str(plan)]) == 0
        iface = plan / INTERFACE_FILE
        iface.write_text(iface.read_text().replace("updateBalance", "update"))
        capsys.readouterr()
        assert main(["compare", str(src), "--plan", str(plan)]) == 1
        assert "bad plan" in capsys.readouterr().err


class TestValidateOnce:
    """Each command walks the checker once per program it reads."""

    INVALID_SRC = """
@Trusted
class Main {
    Main() { }
    static main() { var x: Int = true; }
}
"""

    @staticmethod
    def argv(command, source, tmp_path):
        src = tmp_path / "src.ep"
        src.write_text(source)
        return [command[0], str(src)] + [str(tmp_path / a) if a == "plan"
                                         else a for a in command[1:]]

    @pytest.mark.parametrize("command, expected", [
        (["partition", "-o", "plan"], 1),
        (["run-unpartitioned"], 1),
        (["compare"], 1),  # the reference plan and the partition share it
    ])
    def test_checker_runs_per_command(self, bank_source, tmp_path, capsys,
                                      checker_runs, command, expected):
        assert main(self.argv(command, bank_source, tmp_path)) == 0
        assert len(checker_runs) == expected

    @pytest.mark.parametrize("command", [
        ["partition", "-o", "plan"], ["run-unpartitioned"], ["compare"],
        ["compare", "--plan", "plan"],
    ])
    def test_violations_reported_once(self, tmp_path, capsys, checker_runs,
                                      command):
        assert main(self.argv(command, self.INVALID_SRC, tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "MAIN_PLACEMENT Main.main 5:12: main cannot live in a trusted class",
            "TYPE_ERROR Main.main 5:21: cannot assign Bool to Int",
            "2 validation violation(s)",
        ]
        assert len(checker_runs) == 1


class TestBenchCommand:
    def test_stdout_csv(self, capsys):
        assert main(["bench", "--suite", "proxy_creation"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "metric,value"
        assert "proxy_in_out_cycles,13150" in out

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["bench", "--suite", "rmi", "--out", str(out)]) == 0
        assert "setter_local_in_cycles,8" in out.read_text()

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--suite", "warmup"])
        assert exc.value.code == 2


class TestDumpFsStaysInsideDir:
    """A VFS path with a `..` component is refused before any file is
    written, so --dump-fs never writes outside its directory."""

    SRC = """
@Untrusted
class Main {
    static main() {
        file_write("/a/ok.txt", "fine");
        file_write("BAD", "boo");
        print("done");
    }
}
"""

    def runnable(self, tmp_path, source, command):
        src = tmp_path / "e.ep"
        src.write_text(source)
        if command == "run-unpartitioned":
            return src
        plan = tmp_path / "p"
        assert main(["partition", str(src), "-o", str(plan)]) == 0
        return plan

    @pytest.mark.parametrize("bad", ["/../../escaped.txt",
                                     "/data/../../escaped.txt"])
    @pytest.mark.parametrize("command", ["run", "run-unpartitioned"])
    def test_a_path_that_climbs_is_refused(self, tmp_path, capsys, command,
                                           bad):
        target = self.runnable(tmp_path, self.SRC.replace("BAD", bad),
                               command)
        capsys.readouterr()
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "out" / "a" / "b"
        assert main([command, str(target), "--dump-fs", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "done\n"
        assert captured.err == f"cannot dump {bad}: the path leaves {out}\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["run", "run-unpartitioned"])
    def test_dot_components_stay_where_they_point(self, tmp_path, capsys,
                                                  command):
        source = self.SRC.replace("BAD", "/./data/./r.txt")
        target = self.runnable(tmp_path, source, command)
        out = tmp_path / "out"
        assert main([command, str(target), "--dump-fs", str(out)]) == 0
        assert sorted(p.relative_to(out).as_posix()
                      for p in out.rglob("*.txt")) == ["a/ok.txt", "data/r.txt"]
        assert (out / "data" / "r.txt").read_text() == "boo"


class TestOutputsOverwriteLongerFiles:
    """--metrics, --dump-fs and bench --out leave exactly the new bytes in a
    file that held more."""

    def test_metrics_and_dump_fs(self, tmp_path, capsys):
        src = tmp_path / "w.ep"
        src.write_text("""
@Untrusted
class Main {
    static main() {
        file_write("/data/report.txt", "hi");
    }
}
""")
        plan = tmp_path / "p"
        assert main(["partition", str(src), "-o", str(plan)]) == 0
        fresh, used = tmp_path / "fresh", tmp_path / "used"
        fresh.mkdir()
        (used / "fs" / "data").mkdir(parents=True)
        (used / "m.txt").write_text("#" * 10000)
        (used / "fs" / "data" / "report.txt").write_text("#" * 10000)
        for command in (["run", str(plan)], ["run-unpartitioned", str(src)]):
            for d in (fresh, used):
                assert main(command + ["--metrics", str(d / "m.txt"),
                                       "--dump-fs", str(d / "fs")]) == 0
            assert (used / "m.txt").read_bytes() == \
                (fresh / "m.txt").read_bytes()
            assert (used / "fs" / "data" / "report.txt").read_bytes() == b"hi"

    def test_bench_out(self, tmp_path, capsys):
        fresh, used = tmp_path / "fresh.csv", tmp_path / "used.csv"
        used.write_text("#" * 10000)
        for out in (fresh, used):
            assert main(["bench", "--suite", "rmi", "--out", str(out)]) == 0
        assert used.read_bytes() == fresh.read_bytes()

    def test_metrics_to_a_device(self, bank_dir, capsys):
        _, plan = bank_dir
        assert main(["run", str(plan), "--metrics", os.devnull]) == 0


class TestModelFile:
    """--model FILE: a good file reprices the run; a bad one is one
    `bad cost model:` line and exit 1, before anything runs."""

    def test_a_good_model_reprices_the_run(self, bank_dir, tmp_path, capsys):
        _, plan = bank_dir
        model = tmp_path / "model.txt"
        model.write_text("# cheaper transitions\necall_cost = 100\n"
                         "epc_penalty = 2.5\n")
        runs = []
        for extra in ([], ["--model", str(model)]):
            metrics = tmp_path / f"m{len(runs)}.txt"
            capsys.readouterr()
            assert main(["run", str(plan), "--metrics", str(metrics)] + extra) == 0
            runs.append((capsys.readouterr().out, metrics.read_text()))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] != runs[1][1]

    @pytest.mark.parametrize("text, reason", [
        ("bogus = 1", "line 1: unknown cost model key 'bogus'"),
        ("epc_penalty = nan", "epc_penalty must be a number in [1, 1e6], got nan"),
        ("epc_penalty = inf", "epc_penalty must be a number in [1, 1e6], got inf"),
        ("epc_penalty = 1e308",
         "epc_penalty must be a number in [1, 1e6], got 1e+308"),
        ("epc_penalty = 1000001",
         "epc_penalty must be a number in [1, 1e6], got 1000001.0"),
        ("ecall_cost = 9223372036854775808",
         "ecall_cost must be an integer in [0, 2**63 - 1], "
         "got 9223372036854775808"),
        ("ecall_cost = \u0663", "line 1: bad value for ecall_cost: '\u0663'"),
        ("alloc_cost = 1_000", "line 1: bad value for alloc_cost: '1_000'"),
        ("epc_penalty = \u0662.5", "line 1: bad value for epc_penalty: '\u0662.5'"),
        ("epc_penalty = 1_0.5", "line 1: bad value for epc_penalty: '1_0.5'"),
        ("ecall_cost 5", "line 1: expected key = value, got 'ecall_cost 5'"),
        ("alloc_cost = 1\nalloc_cost = 2", "line 2: duplicate key 'alloc_cost'"),
        # more digits than int() reads from a string (4300 by default)
        ("ecall_cost = " + "9" * 5000,
         "line 1: bad value for ecall_cost: '" + "9" * 5000 + "'"),
    ], ids=["unknown-key", "nan", "inf", "1e308", "above-1e6", "price-2**63",
            "arabic-indic-price", "underscore-price", "arabic-indic-penalty",
            "underscore-penalty", "no-equals", "duplicate-key", "int-too-long"])
    @pytest.mark.parametrize("command", [
        ["run", "{plan}"], ["run-unpartitioned", "{src}"], ["compare", "{src}"],
        ["bench", "--suite", "gc_perf"],
    ], ids=["run", "run-unpartitioned", "compare", "bench"])
    def test_a_bad_model_is_one_line(self, bank_dir, tmp_path, capsys,
                                     command, text, reason):
        src, plan = bank_dir
        model = tmp_path / "model.txt"
        model.write_text(text + "\n")
        argv = [a.format(src=src, plan=plan) for a in command]
        capsys.readouterr()
        assert main(argv + ["--model", str(model)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bad cost model: {reason}\n"

    def test_the_largest_model_runs(self, bank_dir, tmp_path, capsys):
        _, plan = bank_dir
        model = tmp_path / "model.txt"
        model.write_text("".join(f"{key} = {2**63 - 1}\n" for key in (
            "ecall_cost", "ocall_cost", "alloc_cost", "field_access_cost",
            "serialize_per_byte", "compute_unit_cost", "io_write_cost"))
            + "epc_penalty = 1e6\n")
        capsys.readouterr()
        assert main(["run", str(plan), "--model", str(model)]) == 0
        assert capsys.readouterr().err == ""


class TestInspectCommand:
    def test_trusted_image(self, bank_dir, capsys):
        _, plan = bank_dir
        capsys.readouterr()
        assert main(["inspect", str(plan), "trusted"]) == 0
        out = capsys.readouterr().out
        assert "Account [trusted]" in out
        assert "proxies (0):" in out
        assert "Person proxy: pruned (unreachable)" in out
        assert "Main proxy: pruned (unreachable)" in out
        assert "ecall Account.updateBalance(prim) -> unit" in out
        assert "interface descriptor (4 records):" in out

    def test_untrusted_image(self, bank_dir, capsys):
        _, plan = bank_dir
        capsys.readouterr()
        assert main(["inspect", str(plan), "untrusted"]) == 0
        out = capsys.readouterr().out
        assert "Person [untrusted]" in out
        assert "Account (ecall proxy, hash field, 2 stub(s))" in out
        assert "updateBalance(Int)" in out
        assert "addAccount(Account)" in out
        assert "entry points (1):" in out

    def test_a_plan_without_main_lists_its_relays_alone(
            self, bank_program, tmp_path, capsys):
        """A plan whose main is gone still loads, and inspect describes it:
        it cannot run, but its images are entered at their relays."""
        plan = compute_images(bank_program)
        plan.untrusted_image.classes = [c for c in plan.untrusted_image.classes
                                        if c.name != "Main"]
        emit(plan, tmp_path)
        for image, entries in (("trusted", ["Account.Account",
                                            "Account.updateBalance",
                                            "AccountRegistry.AccountRegistry",
                                            "AccountRegistry.addAccount"]),
                               ("untrusted", [])):
            capsys.readouterr()
            assert main(["inspect", str(tmp_path), image]) == 0
            listed = "".join(f"  {e}\n" for e in entries)
            assert f"entry points ({len(entries)}):\n{listed}interface" in \
                capsys.readouterr().out


class TestEntryPoint:
    def test_help_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "epart.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        for cmd in ("partition", "run", "run-unpartitioned",
                    "compare", "bench", "inspect"):
            assert cmd in proc.stdout

    def test_no_command_shows_usage(self, capsys):
        with pytest.raises(SystemExit):
            main([])


def _nested_ifs(depth: int) -> str:
    body = "print(1);"
    for _ in range(depth):
        body = f"if (true) {{ {body} }}"
    return body


class TestDeepPlans:
    """Plans that partition writes load and run in a fresh process, at the
    default recursion limit: the decoder reads a statement block per nesting
    level and a left-deep operator chain in one loop."""

    CASES = {
        "if-244": (_nested_ifs(244), "1\n"),
        "if-300": (_nested_ifs(300), "1\n"),
        "sum-495": ("print(" + " + ".join(["1"] * 495) + ");", "495\n"),
        "sum-900": ("print(" + " + ".join(["1"] * 900) + ");", "900\n"),
    }

    @pytest.mark.parametrize("body,out", CASES.values(), ids=CASES.keys())
    def test_partition_then_run(self, tmp_path, body, out):
        src = tmp_path / "deep.ep"
        src.write_text("@Untrusted\nclass Main {\n    static main() {\n"
                       f"        {body}\n    }}\n}}\n")
        for argv, stdout in ((["partition", str(src), "-o", str(tmp_path / "p")],
                              None),
                             (["run", str(tmp_path / "p")], out)):
            proc = subprocess.run([sys.executable, "-m", "epart.cli", *argv],
                                  capture_output=True, text=True)
            assert (proc.returncode, proc.stderr) == (0, ""), argv[0]
            if stdout is not None:
                assert proc.stdout == stdout


class TestOneLineFailures:
    """Bad inputs and unwritable outputs end in one stderr line, never a
    traceback."""

    CASES = {
        # name: (argv, exit code); {src}, {bad}, {plan}, {file} and {gone}
        # are filled in below.
        "partition-non-utf8": (["partition", "{bad}", "-o", "{gone}/p"], 2),
        "compare-non-utf8": (["compare", "{bad}"], 2),
        "run-unpartitioned-non-utf8": (["run-unpartitioned", "{bad}"], 2),
        "partition-out-is-a-file": (["partition", "{src}", "-o", "{file}"], 1),
        "run-metrics-missing-dir": (
            ["run", "{plan}", "--metrics", "{gone}/m.txt"], 1),
        "run-unpartitioned-metrics-missing-dir": (
            ["run-unpartitioned", "{src}", "--metrics", "{gone}/m.txt"], 1),
        "bench-out-missing-dir": (
            ["bench", "--suite", "rmi", "--out", "{gone}/rmi.csv"], 1),
    }

    @pytest.mark.parametrize("argv,code", CASES.values(), ids=CASES.keys())
    def test_one_line_and_exit_code(self, bank_dir, tmp_path, argv, code):
        src, plan = bank_dir
        bad = tmp_path / "latin1.ep"
        bad.write_bytes("# caf\xe9\n".encode("latin-1"))
        existing = tmp_path / "existing.txt"
        existing.write_text("x")
        paths = {"src": src, "bad": bad, "plan": plan, "file": existing,
                 "gone": tmp_path / "missing"}
        proc = subprocess.run(
            [sys.executable, "-m", "epart.cli",
             *(a.format(**paths) for a in argv)],
            capture_output=True, text=True)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == code
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    def test_a_program_argument_that_is_not_utf8(self, bank_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "epart.cli", "run", str(bank_dir[1]),
             b"a\xffb"], capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, b"", b"argument 1 is not UTF-8 text\n")

    def test_an_unreadable_plan_file(self, bank_dir, capsys):
        _, plan = bank_dir
        (plan / TRUSTED_IMG).unlink()
        (plan / TRUSTED_IMG).mkdir()
        capsys.readouterr()
        assert main(["run", str(plan)]) == 1
        assert capsys.readouterr().err == \
            f"cannot read {plan / TRUSTED_IMG}: Is a directory\n"


class TestExactDiagnostics:
    """Each failure below is exactly one stderr line and its exit code, from
    main in this process.  Paths are relative to the test's directory."""

    PING_PONG = """
@Trusted
class T {
    T() { }
    ping(u: U) { u.pong(this); }
}
@Untrusted
class U {
    U() { }
    pong(t: T) { t.ping(this); }
}
@Untrusted
class Main {
    static main() {
        var t: T = new T();
        var u: U = new U();
        t.ping(u);
    }
}
"""

    CASES = {
        "source-not-utf8": (
            ["partition", "bad.ep", "-o", "p"], 2,
            "parse error: bad.ep: not UTF-8 text (invalid start byte at "
            "byte 0)"),
        "model-missing": (["run", "plan", "--model", "nomodel.txt"], 1,
                          "model file not found: nomodel.txt"),
        # A directory exists, so it is not "not found"; reading it fails.
        "source-is-a-directory": (["partition", "adir", "-o", "p"], 1,
                                  "cannot read adir: Is a directory"),
        "model-is-a-directory": (["run", "plan", "--model", "adir"], 1,
                                 "cannot read adir: Is a directory"),
        "partition-out-is-a-file": (["partition", "bank.ep", "-o", "afile"],
                                    1, "cannot write afile: File exists"),
        "bench-out-is-a-directory": (
            ["bench", "--suite", "rmi", "--out", "adir"], 1,
            "cannot write adir: Is a directory"),
        "run-metrics-is-a-directory": (["run", "plan", "--metrics", "adir"],
                                       1, "cannot write adir: Is a directory"),
        "transition-overflow": (["run", "pingpong"], 1,
                                "transition depth exceeded 256 entering T.ping"),
        # A program argument that is not UTF-8 text reaches Python with
        # surrogate escapes; each command that runs a program refuses it.
        "run-argument-not-utf8": (
            ["run", "plan", "ok", "a\udcffb", "--dump-fs", "fs"], 1,
            "argument 2 is not UTF-8 text"),
        "run-unpartitioned-argument-not-utf8": (
            ["run-unpartitioned", "bank.ep", "ok", "a\udcffb"], 1,
            "argument 2 is not UTF-8 text"),
        "compare-argument-not-utf8": (
            ["compare", "bank.ep", "ok", "a\udcffb"], 1,
            "argument 2 is not UTF-8 text"),
    }

    @pytest.mark.parametrize("argv,code,line", CASES.values(),
                             ids=CASES.keys())
    def test_one_exact_line(self, bank_dir, tmp_path, monkeypatch, capsys,
                            argv, code, line):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.ep").write_bytes(b"\xff@Untrusted\n")
        (tmp_path / "afile").write_text("x")
        (tmp_path / "adir").mkdir()
        (tmp_path / "pingpong.ep").write_text(self.PING_PONG)
        assert main(["partition", "pingpong.ep", "-o", "pingpong"]) == 0
        capsys.readouterr()
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"


class TestFrozenStdout:
    """What partition and inspect print for each fixture, byte for byte.

    Each golden file in tests/fixtures/stdout/ is a transcript: a `$ epart
    ...` line for each command, then the command's stdout.
    """

    COMMANDS = (["partition", "{name}.ep", "-o", "plan"],
                ["inspect", "plan", "trusted"],
                ["inspect", "plan", "untrusted"])

    @pytest.mark.parametrize("name", ["bank", "every_node", "public_field"])
    def test_partition_and_inspect(self, name, tmp_path, monkeypatch, capsys):
        fixtures = Path(__file__).parent / "fixtures"
        (tmp_path / f"{name}.ep").write_bytes((fixtures / f"{name}.ep").read_bytes())
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        transcript = []
        for command in self.COMMANDS:
            argv = [a.format(name=name) for a in command]
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            transcript.append(f"$ epart {' '.join(argv)}\n{captured.out}")
        golden = fixtures / "stdout" / f"{name}.txt"
        assert "".join(transcript) == golden.read_bytes().decode("utf-8")
