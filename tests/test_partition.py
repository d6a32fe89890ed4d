import hashlib

import pytest

from epart.bench import SyntheticSpec, generate_corpus, generate_synthetic
from epart.dsl import parse_program, validate
from epart.dsl.ast import Annotation
from epart.dsl.validate import _Checker
from epart.errors import FormatError, InterfaceMismatch, UnresolvedCall
from epart.partition import (
    CONCRETE, PROXY, build_call_graph, compute_images, emit, load_plan,
)
from epart.partition.emit import INTERFACE_FILE, TRUSTED_IMG, UNTRUSTED_IMG


def plan_of(source: str):
    return compute_images(parse_program(source))


class TestBankImages:
    def test_class_split(self, bank_plan):
        assert [c.name for c in bank_plan.trusted_image.classes] == \
            ["Account", "AccountRegistry"]
        assert [c.name for c in bank_plan.untrusted_image.classes] == \
            ["Person", "Main"]

    def test_descriptor_records(self, bank_plan):
        lines = [r.render() for r in bank_plan.descriptor.records]
        assert lines == [
            "ecall Account.Account(ser,prim) -> unit",
            "ecall Account.updateBalance(prim) -> unit",
            "ecall AccountRegistry.AccountRegistry() -> unit",
            "ecall AccountRegistry.addAccount(href) -> unit",
        ]

    def test_untrusted_image_has_trusted_proxies(self, bank_plan):
        proxies = {p.class_name: p for p in bank_plan.untrusted_image.proxies}
        assert set(proxies) == {"Account", "AccountRegistry"}
        account = proxies["Account"]
        assert account.direction == "ecall"
        assert {s.name for s in account.stubs} == {"Account", "updateBalance"}

    def test_trusted_image_prunes_unused_proxies(self, bank_plan):
        # no trusted method ever calls back into untrusted code
        assert bank_plan.untrusted_image.proxy_def("Person") is None
        assert bank_plan.trusted_image.proxies == []
        assert bank_plan.trusted_image.proxy_def("Person") is None

    def test_entry_points(self, bank_plan):
        assert bank_plan.trusted_image.entry_points == [
            "Account.Account", "Account.updateBalance",
            "AccountRegistry.AccountRegistry", "AccountRegistry.addAccount",
        ]
        assert bank_plan.untrusted_image.entry_points == ["main"]

    def test_every_class_in_exactly_its_images(self, bank_plan):
        for cname, ann in bank_plan.annotations.items():
            in_trusted = bank_plan.trusted_image.class_decl(cname) is not None
            in_untrusted = bank_plan.untrusted_image.class_decl(cname) is not None
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
        u_proxy = plan.trusted_image.proxy_def("U")
        assert u_proxy is not None
        assert {s.name for s in u_proxy.stubs} == {"U", "feed"}
        records = {(r.direction, r.class_name, r.method_name)
                   for r in plan.descriptor.records}
        assert ("ocall", "U", "feed") in records
        assert ("ocall", "U", "unused") not in records

    def test_unreachable_trusted_method_keeps_no_relay(self):
        plan = plan_of(self.SRC)
        t_proxy = plan.untrusted_image.proxy_def("T")
        assert {s.name for s in t_proxy.stubs} == {"T", "pull"}

    def test_pruning_iterates_to_fixpoint(self):
        # main never touches T, so T's relays die; with them gone, U's
        # relays (reachable only from T) must die in a later round.
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
        assert plan.untrusted_image.proxy_def("T") is None
        assert plan.trusted_image.proxy_def("U") is None
        assert plan.descriptor.records == []

    def test_adding_a_call_revives_the_proxy(self):
        revived = self.SRC.replace("t.pull();", "t.pull();\n        t.quiet();")
        base = plan_of(self.SRC)
        plan = plan_of(revived)
        base_stubs = {s.name for s in base.untrusted_image.proxy_def("T").stubs}
        new_stubs = {s.name for s in plan.untrusted_image.proxy_def("T").stubs}
        assert new_stubs == base_stubs | {"quiet"}


class TestEmitLoad:
    def test_roundtrip(self, bank_plan, tmp_path):
        emit(bank_plan, tmp_path)
        loaded = load_plan(tmp_path)
        assert [c.name for c in loaded.trusted_image.classes] == \
            [c.name for c in bank_plan.trusted_image.classes]
        assert [r.render() for r in loaded.descriptor.records] == \
            [r.render() for r in bank_plan.descriptor.records]
        assert loaded.annotations == bank_plan.annotations
        assert loaded.class_ids == bank_plan.class_ids
        assert loaded.untrusted_image.entry_points == \
            bank_plan.untrusted_image.entry_points

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

    def test_corrupt_magic(self, bank_plan, tmp_path):
        emit(bank_plan, tmp_path)
        p = tmp_path / TRUSTED_IMG
        p.write_bytes(b"XXXX" + p.read_bytes()[4:])
        with pytest.raises(FormatError):
            load_plan(tmp_path)

    def test_truncated_image(self, bank_plan, tmp_path):
        emit(bank_plan, tmp_path)
        p = tmp_path / TRUSTED_IMG
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(FormatError):
            load_plan(tmp_path)

    def test_swapped_images(self, bank_plan, tmp_path):
        emit(bank_plan, tmp_path)
        t = (tmp_path / TRUSTED_IMG).read_bytes()
        u = (tmp_path / UNTRUSTED_IMG).read_bytes()
        (tmp_path / TRUSTED_IMG).write_bytes(u)
        (tmp_path / UNTRUSTED_IMG).write_bytes(t)
        with pytest.raises(FormatError):
            load_plan(tmp_path)

    def test_descriptor_stub_mismatch(self, bank_plan, tmp_path):
        emit(bank_plan, tmp_path)
        iface = tmp_path / INTERFACE_FILE
        lines = iface.read_text().splitlines()
        dropped = [l for l in lines if "updateBalance" not in l]
        iface.write_text("\n".join(dropped) + "\n")
        with pytest.raises(InterfaceMismatch):
            load_plan(tmp_path)


class TestCorpusSoundness:
    def test_partition_soundness_over_corpus(self):
        for source in generate_corpus(25, seed=77):
            plan = compute_images(parse_program(source))
            for cname, ann in plan.annotations.items():
                in_t = plan.trusted_image.class_decl(cname) is not None
                in_u = plan.untrusted_image.class_decl(cname) is not None
                # unreachable classes may be dropped, but a class never
                # lands in the opposite side's image
                if ann == Annotation.TRUSTED:
                    assert not in_u
                elif ann == Annotation.UNTRUSTED:
                    assert not in_t
            assert plan.untrusted_image.class_decl("Main") is not None
            # a proxy never coexists with its concrete class in one image
            for image in (plan.trusted_image, plan.untrusted_image):
                concrete = {c.name for c in image.classes}
                for proxy in image.proxies:
                    assert proxy.class_name not in concrete
            # every surviving stub has exactly one descriptor record
            for image in (plan.trusted_image, plan.untrusted_image):
                for proxy in image.proxies:
                    for stub in proxy.stubs:
                        rec = plan.descriptor.lookup(proxy.class_name, stub.name)
                        assert rec is not None


class TestSingleResolution:
    def test_one_checker_walk_per_compute_images(self, bank_program, monkeypatch):
        runs = []
        original = _Checker.run

        def counted(checker):
            runs.append(checker)
            return original(checker)

        monkeypatch.setattr(_Checker, "run", counted)
        compute_images(bank_program)  # the bank fixpoint iterates twice
        assert len(runs) == 1

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
                "921dc47ce10df88994f40c9f0a78524b6bc6d0d6b5b8a504bc042a96bb6d9d25",
            UNTRUSTED_IMG:
                "254b707014178ff5a4627d5ce45d5f192c09b718eb019a107c79598e7b0449e1",
        }
