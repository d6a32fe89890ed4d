"""Benchmark suites with deterministic CSV reports.

Suites and their CSV columns:

  proxy_creation   metric,value
      cycles per object creation, measured four ways: through a proxy in
      either direction and concretely on either side, plus the two
      proxy/concrete ratios.
  rmi              metric,value
      cycles per one-Int-argument setter call, local on each side and
      remote in each direction, plus the marshaled bytes per remote call.
  rmi_serialization metric,value
      cycles per no-payload call vs. per call carrying a list of
      `payload_items` strings of `payload_item_bytes` chars; the exact
      serialization cycle delta over `invocations` calls and the
      payload/no-payload cost ratio.
  gc_perf          metric,value
      gc cycle counts for identical garbage churned inside each isolate
      at two sizes; the delta ratio isolates the EPC penalty exactly.
  gc_consistency   iteration,registry_after_create,live_after_create,create_ok,
                   registry_after_sweep,live_after_sweep,between_ok,
                   registry_after_scan,live_after_scan,scan_ok,removes_total
      per-iteration mirror-registry vs. live-proxy census around a
      create / drop / collect / scan cycle.
  class_sweep      pct_untrusted,n_classes,n_trusted,n_untrusted,ecalls,ocalls,
                   shim_ocalls,total_cycles,baseline_cycles,cycles_over_baseline,
                   matches_baseline
      synthetic workload swept over the untrusted-class percentage; the
      baseline is the same program run without an enclave.

All suites are seeded and single-threaded; rerunning one yields a
byte-identical report.
"""

import csv
import io
from dataclasses import dataclass, field

from .._files import write_file
from ..dsl import parse_program
from ..partition import compute_images
from ..runtime import CostModel, DualRuntime, run_reference
from ..runtime.heap import TRUSTED, UNTRUSTED
from .synth import SyntheticSpec, generate_synthetic

SUITES = ("proxy_creation", "rmi", "rmi_serialization", "gc_perf",
          "gc_consistency", "class_sweep")

SWEEP_STEPS = tuple(range(0, 101, 10))

_NO_GC = 1 << 60


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


@dataclass
class BenchReport:
    suite: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)

    def add(self, *values) -> None:
        self.rows.append(list(values))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.columns)
        for row in self.rows:
            w.writerow([_fmt(v) for v in row])
        return buf.getvalue()

    def write(self, path) -> None:
        write_file(path, self.to_csv().encode("utf-8"))

    def value(self, metric: str):
        """Look up a row by its first column (metric/value suites)."""
        for row in self.rows:
            if row and row[0] == metric:
                return row[1]
        raise KeyError(metric)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _build(source: str, model: CostModel, **kwargs) -> DualRuntime:
    plan = compute_images(parse_program(source))
    return DualRuntime(plan, model=model, **kwargs)


def _source_cycles(rt: DualRuntime, side: str, *sources: str) -> int:
    iso = rt.isolates[side]
    return sum(iso.cycles_by_source.get(s, 0) for s in sources)


# ---------------------------------------------------------------------------
# proxy_creation

_CREATION_SRC = """\
@Trusted
class TBox {
    TBox() {
    }
}

@Untrusted
class UBox {
    UBox() {
    }
}

@Trusted
class TDriver {
    TDriver() {
    }
    makeRemote() {
        var u: UBox = new UBox();
    }
}

@Untrusted
class Main {
    static main() {
        var t: TBox = new TBox();
        var d: TDriver = new TDriver();
        d.makeRemote();
    }
}
"""


def _per_op_cycles(rt: DualRuntime, ops: int, op) -> int:
    """Total simulated cycles, both isolates, per op(i) for i < ops; every
    op must cost the same."""
    before = rt.total_cycles()
    for i in range(ops):
        op(i)
    delta = rt.total_cycles() - before
    assert delta % ops == 0, "per-op cost must be uniform"
    return delta // ops


def _suite_proxy_creation(model: CostModel, ops: int = 100) -> BenchReport:
    rt = _build(_CREATION_SRC, model, gc_threshold=_NO_GC)

    def new_cost(side: str, class_name: str) -> int:
        return _per_op_cycles(rt, ops, lambda _: rt.construct(
            side, class_name, []))

    proxy_out_in = new_cost(UNTRUSTED, "TBox")
    concrete_in = new_cost(TRUSTED, "TBox")
    proxy_in_out = new_cost(TRUSTED, "UBox")
    concrete_out = new_cost(UNTRUSTED, "UBox")
    rep = BenchReport("proxy_creation", ["metric", "value"])
    rep.add("ops", ops)
    rep.add("proxy_in_out_cycles", proxy_in_out)
    rep.add("proxy_out_in_cycles", proxy_out_in)
    rep.add("concrete_in_cycles", concrete_in)
    rep.add("concrete_out_cycles", concrete_out)
    rep.add("ratio_proxy_in_out_vs_concrete_in", proxy_in_out / concrete_in)
    rep.add("ratio_proxy_out_in_vs_concrete_out", proxy_out_in / concrete_out)
    return rep


# ---------------------------------------------------------------------------
# rmi

_RMI_SRC = """\
@Trusted
class THolder {
    v: Int;
    THolder() {
        this.v = 0;
    }
    set(x: Int) {
        this.v = x;
    }
}

@Untrusted
class UHolder {
    v: Int;
    UHolder() {
        this.v = 0;
    }
    set(x: Int) {
        this.v = x;
    }
}

@Trusted
class TDriver {
    TDriver() {
    }
    poke() {
        var u: UHolder = new UHolder();
        u.set(1);
    }
}

@Untrusted
class Main {
    static main() {
        var t: THolder = new THolder();
        t.set(1);
        var d: TDriver = new TDriver();
        d.poke();
    }
}
"""


def _suite_rmi(model: CostModel, ops: int = 100) -> BenchReport:
    rt = _build(_RMI_SRC, model, gc_threshold=_NO_GC)
    t_proxy = rt.construct(UNTRUSTED, "THolder", [])
    t_local = rt.construct(TRUSTED, "THolder", [])
    u_local = rt.construct(UNTRUSTED, "UHolder", [])
    u_proxy = rt.construct(TRUSTED, "UHolder", [])

    def set_cost(side: str, receiver, ops: int) -> int:
        return _per_op_cycles(rt, ops, lambda i: rt.call(
            side, receiver, "set", [i], pin=False))

    bytes_before = rt.isolates[UNTRUSTED].bytes_serialized
    set_cost(UNTRUSTED, t_proxy, 1)
    arg_bytes = rt.isolates[UNTRUSTED].bytes_serialized - bytes_before
    cross_out_in = set_cost(UNTRUSTED, t_proxy, ops)
    cross_in_out = set_cost(TRUSTED, u_proxy, ops)
    local_in = set_cost(TRUSTED, t_local, ops)
    local_out = set_cost(UNTRUSTED, u_local, ops)
    rep = BenchReport("rmi", ["metric", "value"])
    rep.add("ops", ops)
    rep.add("setter_local_in_cycles", local_in)
    rep.add("setter_local_out_cycles", local_out)
    rep.add("setter_cross_out_in_cycles", cross_out_in)
    rep.add("setter_cross_in_out_cycles", cross_in_out)
    rep.add("arg_bytes_per_cross_call", arg_bytes)
    rep.add("ratio_cross_out_in_vs_local_in", cross_out_in / local_in)
    rep.add("ratio_cross_in_out_vs_local_out", cross_in_out / local_out)
    return rep


# ---------------------------------------------------------------------------
# rmi_serialization

_SERIALIZATION_SRC = """\
@Trusted
class Sink {
    n: Int;
    Sink() {
        this.n = 0;
    }
    ping() {
        this.n = this.n + 1;
    }
    take(xs: List[Str]) {
        this.n = this.n + 1;
    }
}

@Untrusted
class Main {
    static main() {
        var s: Sink = new Sink();
        s.ping();
        var e: List[Str] = [];
        s.take(e);
    }
}
"""


def _suite_rmi_serialization(model: CostModel, invocations: int = 10000,
                             payload_items: int = 100,
                             payload_item_bytes: int = 205) -> BenchReport:
    rt = _build(_SERIALIZATION_SRC, model)
    sink = rt.construct(UNTRUSTED, "Sink", [])
    item = "0123456789abcdef"[:payload_item_bytes]
    item = (item * (payload_item_bytes // max(len(item), 1) + 1))[:payload_item_bytes]
    payload = rt.make_list(UNTRUSTED, [item] * payload_items)

    def boundary_cycles() -> int:
        return _source_cycles(rt, UNTRUSTED, "transition", "serialize")

    before_cycles = boundary_cycles()
    before_bytes = rt.isolates[UNTRUSTED].bytes_serialized
    for _ in range(invocations):
        rt.call(UNTRUSTED, sink, "ping", [], pin=False)
    ping_cycles = boundary_cycles() - before_cycles
    ping_bytes = rt.isolates[UNTRUSTED].bytes_serialized - before_bytes

    before_cycles = boundary_cycles()
    before_serialize = _source_cycles(rt, UNTRUSTED, "serialize")
    before_bytes = rt.isolates[UNTRUSTED].bytes_serialized
    for _ in range(invocations):
        rt.call(UNTRUSTED, sink, "take", [payload], pin=False)
    take_cycles = boundary_cycles() - before_cycles
    serialize_delta = _source_cycles(rt, UNTRUSTED, "serialize") - before_serialize
    take_bytes = rt.isolates[UNTRUSTED].bytes_serialized - before_bytes

    payload_bytes = take_bytes // invocations
    rep = BenchReport("rmi_serialization", ["metric", "value"])
    rep.add("invocations", invocations)
    rep.add("payload_items", payload_items)
    rep.add("payload_item_bytes", payload_item_bytes)
    rep.add("payload_bytes_per_call", payload_bytes)
    rep.add("ping_bytes_per_call", ping_bytes // invocations)
    rep.add("ping_cycles_per_call", ping_cycles // invocations)
    rep.add("take_cycles_per_call", take_cycles // invocations)
    rep.add("serialize_cycles_delta", serialize_delta)
    rep.add("serialize_cycles_per_call", serialize_delta // invocations)
    rep.add("ratio_take_vs_ping", take_cycles / ping_cycles)
    return rep


# ---------------------------------------------------------------------------
# gc_perf

_GC_PERF_SRC = """\
@Trusted
class TJunk {
    a: Int;
    b: Int;
    TJunk() {
        this.a = 1;
        this.b = 2;
    }
}

@Untrusted
class UJunk {
    a: Int;
    b: Int;
    UJunk() {
        this.a = 1;
        this.b = 2;
    }
}

@Trusted
class TChurn {
    TChurn() {
    }
    churn(n: Int) {
        var i: Int = 0;
        while (i < n) {
            var j: TJunk = new TJunk();
            i = i + 1;
        }
        gc();
    }
}

@Untrusted
class UChurn {
    UChurn() {
    }
    churn(n: Int) {
        var i: Int = 0;
        while (i < n) {
            var j: UJunk = new UJunk();
            i = i + 1;
        }
        gc();
    }
}

@Untrusted
class Main {
    static main() {
        var t: TChurn = new TChurn();
        t.churn(2);
        var u: UChurn = new UChurn();
        u.churn(2);
    }
}
"""


def _gc_cycles_at(model: CostModel, n: int) -> tuple[int, int]:
    rt = _build(_GC_PERF_SRC, model, gc_threshold=_NO_GC)
    t = rt.construct(UNTRUSTED, "TChurn", [])
    u = rt.construct(UNTRUSTED, "UChurn", [])
    rt.call(UNTRUSTED, t, "churn", [n], pin=False)
    rt.call(UNTRUSTED, u, "churn", [n], pin=False)
    return (rt.isolates[TRUSTED].metrics.gc_cycles,
            rt.isolates[UNTRUSTED].metrics.gc_cycles)


def _suite_gc_perf(model: CostModel, n_small: int = 256,
                   n_large: int = 512) -> BenchReport:
    t_small, u_small = _gc_cycles_at(model, n_small)
    t_large, u_large = _gc_cycles_at(model, n_large)
    delta_t = t_large - t_small
    delta_u = u_large - u_small
    rep = BenchReport("gc_perf", ["metric", "value"])
    rep.add("n_small", n_small)
    rep.add("n_large", n_large)
    rep.add("gc_cycles_trusted_small", t_small)
    rep.add("gc_cycles_trusted_large", t_large)
    rep.add("gc_cycles_untrusted_small", u_small)
    rep.add("gc_cycles_untrusted_large", u_large)
    rep.add("delta_trusted", delta_t)
    rep.add("delta_untrusted", delta_u)
    rep.add("epc_penalty", float(model.epc_penalty))
    rep.add("delta_ratio", delta_t / delta_u)
    return rep


# ---------------------------------------------------------------------------
# gc_consistency

_CELL_SRC = """\
@Trusted
class Cell {
    v: Int;
    Cell() {
        this.v = 0;
    }
    touch() {
        this.v = 1;
    }
}

@Untrusted
class Main {
    static main() {
        var c: Cell = new Cell();
        c.touch();
    }
}
"""


def _suite_gc_consistency(model: CostModel, cycles: int = 1000) -> BenchReport:
    rt = _build(_CELL_SRC, model, gc_threshold=_NO_GC,
                gc_scan_every=1 << 30)
    rep = BenchReport("gc_consistency", [
        "iteration",
        "registry_after_create", "live_after_create", "create_ok",
        "registry_after_sweep", "live_after_sweep", "between_ok",
        "registry_after_scan", "live_after_scan", "scan_ok",
        "removes_total",
    ])
    trusted = rt.isolates[TRUSTED]
    untrusted = rt.isolates[UNTRUSTED]
    for i in range(cycles):
        rt.construct(UNTRUSTED, "Cell", [])
        reg_c = len(trusted.registry)
        live_c = untrusted.metrics.live_proxies
        rt.clear_pins(UNTRUSTED)
        rt.force_gc(UNTRUSTED, scan=False)
        reg_s = len(trusted.registry)
        live_s = untrusted.metrics.live_proxies
        rt.force_gc(UNTRUSTED, scan=True)
        reg_f = len(trusted.registry)
        live_f = untrusted.metrics.live_proxies
        rep.add(i, reg_c, live_c, reg_c == live_c,
                reg_s, live_s, reg_s >= live_s,
                reg_f, live_f, reg_f == live_f,
                rt.remove_calls)
    return rep


# ---------------------------------------------------------------------------
# class_sweep

def sweep_partition_ratio(steps=SWEEP_STEPS, n_classes: int = 100,
                          workload: str = "io", seed: int = 0,
                          model: CostModel | None = None) -> BenchReport:
    model = model or CostModel()
    rep = BenchReport("class_sweep", [
        "pct_untrusted", "n_classes", "n_trusted", "n_untrusted",
        "ecalls", "ocalls", "shim_ocalls", "total_cycles",
        "baseline_cycles", "cycles_over_baseline", "matches_baseline",
    ])
    for pct in steps:
        if pct not in SWEEP_STEPS:
            raise ValueError(f"sweep step {pct} not in {SWEEP_STEPS}")
        spec = SyntheticSpec(n_classes=n_classes, pct_untrusted=pct,
                             workload=workload, seed=seed)
        prog = parse_program(generate_synthetic(spec))
        rt = DualRuntime(compute_images(prog), model=model)
        res = rt.run_main([])
        base = run_reference(prog, [], model=model)
        matches = (res.transcript == base.transcript and res.vfs == base.vfs)
        rep.add(pct, n_classes, spec.trusted_count(), spec.untrusted_count(),
                res.total("ecalls"), res.total("ocalls") - res.shim_ocalls,
                res.shim_ocalls, res.total_cycles,
                base.total_cycles, res.total_cycles / base.total_cycles,
                matches)
    return rep


# ---------------------------------------------------------------------------

def run_suite(kind: str, model: CostModel | None = None, seed: int = 0,
              **params) -> BenchReport:
    model = model or CostModel()
    if kind == "proxy_creation":
        return _suite_proxy_creation(model, **params)
    if kind == "rmi":
        return _suite_rmi(model, **params)
    if kind == "rmi_serialization":
        return _suite_rmi_serialization(model, **params)
    if kind == "gc_perf":
        return _suite_gc_perf(model, **params)
    if kind == "gc_consistency":
        return _suite_gc_consistency(model, **params)
    if kind == "class_sweep":
        return sweep_partition_ratio(model=model, seed=seed, **params)
    raise ValueError(f"unknown suite {kind!r}; choose one of {SUITES}")
