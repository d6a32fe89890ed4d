from pathlib import Path

import pytest

from epart.bench import generate_program
from epart.dsl import parse_program
from epart.errors import EpartError
from epart.partition import compute_images, whole_program_plan
from epart.runtime import DEFAULT_GC_THRESHOLD, DualRuntime
from epart.runtime.costmodel import CostModel
from epart.runtime.heap import (
    TRUSTED, UNTRUSTED, InstanceObj, Isolate,
)

from test_partition import named

NO_GC = 1 << 60


def plan_of(source: str):
    return compute_images(parse_program(source))


CHURN_SRC = """
@Trusted
class TTemp {
    a: Int;
    b: Int;
    TTemp() { }
}
@Untrusted
class UTemp {
    a: Int;
    b: Int;
    UTemp() { }
}
@Untrusted
class Driver {
    Driver() { }
    churnTrusted(n: Int) {
        var i: Int = 0;
        while (i < n) {
            var t: TTemp = new TTemp();
            i = i + 1;
        }
    }
    churnLocal(n: Int) {
        var i: Int = 0;
        while (i < n) {
            var u: UTemp = new UTemp();
            i = i + 1;
        }
        gc();
    }
}
@Untrusted
class Main {
    static main() {
        var d: Driver = new Driver();
        d.churnTrusted(2);
        d.churnLocal(2);
    }
}
"""


class TestCensus:
    def make_runtime(self, bank_plan, **kw):
        return DualRuntime(bank_plan, **kw)

    def test_registry_equals_live_after_scan(self, bank_plan):
        rt = self.make_runtime(bank_plan, gc_threshold=NO_GC)
        kept = [rt.construct(UNTRUSTED, "Account", ["K", i]) for i in range(4)]
        for i in range(6):
            rt.construct(UNTRUSTED, "Account", ["D", i], pin=False)
        assert len(rt.registry_hashes(TRUSTED)) == 10
        rt.force_gc(UNTRUSTED, scan=True)
        live = rt.live_proxy_hashes(UNTRUSTED)
        assert rt.registry_hashes(TRUSTED) == live
        assert live == {p.hash_value for p in kept}
        assert rt.remove_calls == 6

    def test_registry_superset_between_scans(self, bank_plan):
        rt = self.make_runtime(bank_plan, gc_threshold=NO_GC,
                               gc_scan_every=1 << 30)
        rt.construct(UNTRUSTED, "Account", ["D", 0], pin=False)
        rt.construct(UNTRUSTED, "Account", ["K", 1])
        rt.force_gc(UNTRUSTED, scan=False)
        # the dead proxy is swept but its mirror lingers until a scan
        assert len(rt.live_proxy_hashes(UNTRUSTED)) == 1
        assert len(rt.registry_hashes(TRUSTED)) == 2
        assert rt.registry_hashes(TRUSTED) >= rt.live_proxy_hashes(UNTRUSTED)
        rt.force_gc(UNTRUSTED, scan=True)
        assert rt.registry_hashes(TRUSTED) == rt.live_proxy_hashes(UNTRUSTED)

    def test_scan_every_policy(self, bank_plan):
        rt = self.make_runtime(bank_plan, gc_threshold=NO_GC, gc_scan_every=2)
        rt.construct(UNTRUSTED, "Account", ["D", 0], pin=False)
        rt.force_gc(UNTRUSTED, scan=False)
        assert len(rt.registry_hashes(TRUSTED)) == 1
        rt.force_gc(UNTRUSTED, scan=False)  # second collection reaches the cadence
        assert rt.registry_hashes(TRUSTED) == set()


class TestCollections:
    def test_threshold_triggers_collection(self):
        src = CHURN_SRC.replace("d.churnLocal(2);", "d.churnLocal(40);")
        res = DualRuntime(plan_of(src), gc_threshold=256).run_main()
        # several threshold collections plus the explicit gc() at the end
        assert res.metrics[UNTRUSTED].gc_runs >= 3
        quiet = DualRuntime(plan_of(src), gc_threshold=NO_GC).run_main()
        assert quiet.metrics[UNTRUSTED].gc_runs == 1
        assert quiet.transcript == res.transcript

    def test_a_loop_iteration_ends_at_a_safepoint(self):
        """An empty loop body has no statement to end at, so only the
        safepoint after each iteration collects what the condition
        allocated after its last call.  In the partitioned run count()
        runs on the trusted side, so no later safepoint of the untrusted
        side stands in for it."""
        program = parse_program("""
@Trusted
class Counter {
    n: Int;
    Counter() { }
    count() -> Int {
        this.n = this.n + 1;
        return this.n;
    }
}
@Untrusted
class Main {
    static main() {
        var c: Counter = new Counter();
        while (c.count() < [1, 2, 3].len()) { }
        print(c.count());
    }
}
""")
        runs = {}
        for mode, plan in (("partitioned", compute_images(program)),
                           ("enclave", whole_program_plan(program, enclave=True)),
                           ("reference", whole_program_plan(program, enclave=False))):
            res = DualRuntime(plan, gc_threshold=40).run_main()
            assert res.transcript == ["4"], mode
            runs[mode] = {side: m.gc_runs for side, m in res.metrics.items()}
        assert runs == {"partitioned": {TRUSTED: 0, UNTRUSTED: 3},
                        "enclave": {TRUSTED: 3, UNTRUSTED: 0},
                        "reference": {UNTRUSTED: 3}}

    def test_explicit_gc_collects_calling_side_only(self):
        src = CHURN_SRC.replace("d.churnTrusted(2);", "d.churnTrusted(40);")
        res = DualRuntime(plan_of(src), gc_threshold=NO_GC).run_main()
        u = res.metrics[UNTRUSTED]
        t = res.metrics[TRUSTED]
        assert u.gc_runs == 1          # the in-language gc() call
        assert t.gc_runs == 0          # trusted garbage is never touched
        assert u.gc_cycles > 0
        # the scan after gc() dropped every dead TTemp proxy's mirror
        assert res.remove_calls == 40
        assert t.mirror_registry_size == 0

    def test_explicit_gc_emits_remove_transitions(self):
        src = CHURN_SRC.replace("d.churnTrusted(2);", "d.churnTrusted(3);")
        rt = DualRuntime(plan_of(src), gc_threshold=NO_GC, trace=True)
        res = rt.run_main()
        removes = [ev for ev in res.trace if ev.kind == "remove"]
        assert len(removes) == 3 == res.remove_calls
        assert all(ev.qualname == "TTemp.release" for ev in removes)
        assert all(ev.direction == "ecall" for ev in removes)
        # removal is a real transition and is billed like one
        assert res.metrics[UNTRUSTED].ecalls == 3 + 3  # TTemp ctors + removes

    def test_gc_cycles_formula(self, bank_plan):
        model = CostModel()
        rt = DualRuntime(bank_plan, model=model, gc_threshold=NO_GC)
        for i in range(8):
            rt.construct(UNTRUSTED, "Account", ["D", i], pin=False)
        stats = rt.force_gc(UNTRUSTED, scan=True)
        expected = (stats.swept_bytes + stats.live_bytes) * model.field_access_cost
        assert stats.cycles == expected
        t_stats = rt.force_gc(TRUSTED, scan=True)
        t_expected = int((t_stats.swept_bytes + t_stats.live_bytes)
                         * model.field_access_cost * model.epc_penalty)
        assert t_stats.cycles == t_expected

    def test_trusted_collection_pays_epc_penalty(self, bank_plan):
        # identical garbage on each side; the trusted sweep costs 4x
        decl = named(bank_plan.trusted_image.classes, "Account")

        def collect(side):
            rt = DualRuntime(bank_plan, gc_threshold=NO_GC)
            iso = rt.isolates[side]
            for _ in range(16):
                iso.alloc(InstanceObj(decl), charged=False)
            return rt.force_gc(side, scan=False)

        t = collect(TRUSTED)
        u = collect(UNTRUSTED)
        assert t.swept_bytes == u.swept_bytes
        assert t.cycles == 4 * u.cycles


class TestMirrorPrimitives:
    def test_remove_mirror_idempotent(self, bank_plan):
        iso = Isolate(TRUSTED, CostModel())
        obj = InstanceObj(named(bank_plan.trusted_image.classes, "Account"))
        iso.register_mirror(0x8000000000000001, obj)
        assert iso.remove_mirror(0x8000000000000001) is True
        assert iso.remove_mirror(0x8000000000000001) is False
        assert iso.metrics.mirror_registry_size == 0

    def test_swept_proxy_stays_in_the_table_until_a_scan(self, bank_plan):
        rt = DualRuntime(bank_plan, gc_threshold=NO_GC, gc_scan_every=1 << 30)
        iso = rt.isolates[UNTRUSTED]
        proxy = rt.construct(UNTRUSTED, "Account", ["X", 1])
        h = proxy.hash_value
        assert iso.proxy_table == {h: proxy}
        assert iso.metrics.live_proxies == 1
        rt.clear_pins(UNTRUSTED)
        rt.force_gc(UNTRUSTED, scan=False)
        assert proxy.swept and iso.proxy_table[h] is proxy
        assert iso.metrics.live_proxies == 0
        assert rt.live_proxy_hashes(UNTRUSTED) == set()
        rt.force_gc(UNTRUSTED, scan=True)
        assert iso.proxy_table == {}

    def test_cleared_entries_reported_once(self, bank_plan):
        rt = DualRuntime(bank_plan, gc_threshold=NO_GC)
        rt.construct(UNTRUSTED, "Account", ["X", 1], pin=False)
        iso = rt.isolates[UNTRUSTED]
        rt.force_gc(UNTRUSTED, scan=True)
        assert iso.pop_cleared_proxies() == []
        assert rt.remove_calls == 1
        rt.force_gc(UNTRUSTED, scan=True)
        assert rt.remove_calls == 1  # nothing new to report


FIXTURES = Path(__file__).parent / "fixtures"


def _invariant_sources():
    yield "bank", (FIXTURES / "bank.ep").read_text(encoding="utf-8")
    yield "every_node", (FIXTURES / "every_node.ep").read_text(encoding="utf-8")
    for i in range(20):
        yield f"progen{i}", generate_program(i)


_INVARIANT_PLANS = [pytest.param(compute_images(parse_program(src)), id=name)
                    for name, src in _invariant_sources()]


class TestCounterInvariants:
    """Each counter that another structure also holds agrees with it."""

    @pytest.mark.parametrize("gc_scan_every", [1, 3])
    @pytest.mark.parametrize("gc_threshold", [256, DEFAULT_GC_THRESHOLD])
    @pytest.mark.parametrize("plan", _INVARIANT_PLANS)
    def test_counters_match_their_sources(self, plan, gc_threshold,
                                          gc_scan_every):
        rt = DualRuntime(plan, gc_threshold=gc_threshold,
                         gc_scan_every=gc_scan_every)
        try:
            rt.run_main([])
        except EpartError:
            pass  # a faulting program leaves its state to check all the same
        res = rt.result()
        for side, m in res.metrics.items():
            by_source = res.cycles_by_source[side]
            assert m.live_proxies == len(rt.live_proxy_hashes(side))
            assert m.mirror_registry_size == len(rt.registry_hashes(side))
            assert m.simulated_cycles == sum(by_source.values())
            assert m.gc_cycles == by_source.get("gc", 0)


KEEPER_SRC = """
@Trusted
class Cell {
    v: Int;
    Cell(v: Int) { this.v = v; }
    get() -> Int { return this.v; }
}
@Trusted
class Keeper {
    cell: Cell;
    Keeper() { this.cell = new Cell(7); }
    give() -> Cell { return this.cell; }
}
@Untrusted
class Main {
    static main() {
        var k: Keeper = new Keeper();
        print(k.give().get());
    }
}
"""


class TestProxyRebinding:
    def test_a_swept_proxy_is_rebound_on_the_next_return(self):
        rt = DualRuntime(plan_of(KEEPER_SRC), gc_threshold=NO_GC,
                         gc_scan_every=1 << 30, trace=True)
        iso = rt.isolates[UNTRUSTED]
        keeper = rt.construct(UNTRUSTED, "Keeper", [])
        first = rt.call(UNTRUSTED, keeper, "give", [], pin=False)
        h = first.hash_value
        rt.force_gc(UNTRUSTED, scan=False)
        assert first.swept
        assert h not in rt.live_proxy_hashes(UNTRUSTED)

        second = rt.call(UNTRUSTED, keeper, "give", [])
        assert second is not first and not second.swept
        assert second.hash_value == h
        assert iso.proxy_table[h] is second
        assert rt.live_proxy_hashes(UNTRUSTED) == {keeper.hash_value, h}
        assert iso.metrics.live_proxies == 2

        trace_len = len(rt.trace)
        rt.force_gc(UNTRUSTED, scan=True)
        assert not [ev for ev in rt.trace[trace_len:] if ev.hash_value == h]
        assert rt.remove_calls == 0
        assert h in rt.registry_hashes(TRUSTED)
        assert rt.call(UNTRUSTED, second, "get", []) == 7


# N pairs linked both ways across the boundary, then dropped.
CYCLE_SRC = """
@Trusted
class T {
    u: U;
    T() { }
    link(x: U) { this.u = x; }
}
@Untrusted
class U {
    t: T;
    U() { }
    link(x: T) { this.t = x; }
}
@Untrusted
class Main {
    static main() {
        var i: Int = 0;
        while (i < PAIRS) {
            var t: T = new T();
            var u: U = new U();
            t.link(u);
            u.link(t);
            i = i + 1;
        }
        gc();
    }
}
"""


class TestCrossBoundaryCycles:
    """A cycle through both heaps is never collected.  Each side's registry
    roots the mirror that the other side's proxy names, and each mirror
    holds a proxy of the other side's mirror, so no scan ever finds a swept
    proxy to release.  Reference listing, like Java RMI's distributed GC,
    does not collect distributed cycles."""

    @pytest.mark.parametrize("pairs, trusted_cycles, untrusted_cycles", [
        (1, 384, 96), (10, 3840, 960), (100, 38400, 9600)])
    def test_linked_pairs_survive_forced_scans(self, pairs, trusted_cycles,
                                               untrusted_cycles):
        rt = DualRuntime(plan_of(CYCLE_SRC.replace("PAIRS", str(pairs))))
        rt.run_main()
        for _ in range(3):
            for side, cycles in ((TRUSTED, trusted_cycles),
                                 (UNTRUSTED, untrusted_cycles)):
                stats = rt.force_gc(side, scan=True)
                # each side: a mirror and the proxy it holds, per pair
                assert (stats.swept_objects, stats.live_objects,
                        stats.live_bytes, stats.cycles) == (
                    0, 2 * pairs, 48 * pairs, cycles)
        metrics = rt.result().metrics
        for side in (TRUSTED, UNTRUSTED):
            assert len(rt.registry_hashes(side)) == pairs
            assert len(rt.live_proxy_hashes(side)) == pairs
            assert (metrics[side].mirror_registry_size,
                    metrics[side].live_proxies) == (pairs, pairs)
        assert rt.remove_calls == 0
