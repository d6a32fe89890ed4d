"""Layered host-time benchmark for the epart toolchain.

epart's headline output is simulated cycles; this benchmark measures the
other axis, the host time the toolchain itself spends, end to end per command
and per layer, and records both axes side by side.  It drives epart only
through its public API and changes nothing under ``src/epart``.

Run one workload per process (``perfbench/run.py --help``).  Every workload
runs single-threaded, derives all of its inputs from ``--seed`` and checks
every output against an oracle computed here in plain Python (see
``workloads.py``).  A failed operation is an exception or any mismatch with
the oracle, or a simulated-cycle or count that does not repeat exactly.

Workloads, why each was chosen, what it stresses and what it bypasses:

  partition_wide   bench.synth programs of 200 classes, 50% untrusted; one
                   operation partitions, emits, loads and runs a cpu-body and
                   an io-body program (4 KB string literals).  Stresses
                   dsl.lexer, dsl.parser, dsl.validate, partition.callgraph/
                   plan and partition.emit, where compute_images grows
                   superlinearly.  The interpreter, wire and GC do almost
                   nothing: two statements per class, about 2n transitions.
  interp_loop      a small seeded program whose time goes to long while loops
                   (arithmetic, field access, neutral method calls, list
                   append/get/len), half untrusted and half inside one ecall,
                   run dual, reference and unpartitioned.  Stresses
                   runtime.interp and runtime.single; partitioning is
                   negligible and it makes two transitions.
  boundary_churn   rounds of: construct 500 trusted Cells from untrusted
                   code and keep them in a list, call each with a List[Str]
                   and an href to a fresh untrusted Note (so the trusted side
                   makes proxies and ocalls back), drop the list and gc().
                   Stresses runtime.heap (proxy table, weak list, mark/sweep),
                   runtime.dual (transitions, materialize, scan) and
                   runtime.wire; partitioning and lexing are negligible.
  corpus_diff      200 bench.progen programs; one operation is what
                   ``epart compare`` does for one program (parse, validate,
                   reference run, partition, dual run, diff), plus the emit/
                   load round trip and the enclave run every workload makes.
                   Per-program fixed costs dominate, so a change that trades
                   fixed cost for asymptotic speed shows here.  Programs whose
                   loops double a string a millionfold are left out (see
                   workloads.grows_a_string); the record counts them.

Every workload's operation runs the same command pipeline, so every
end-to-end metric is defined on every workload; the workloads differ in
where that pipeline spends its time.

End-to-end metrics (``--trace 0``, tracing off):

  setup_s          median of three set-ups: import, input generation, warm-up
  peak_rss_mb      peak resident memory of the workload's process
  partition_s      median per operation: parse, validate, compute_images, emit
  run_s            median per operation: load_plan, DualRuntime, run_main
  reference_s      median per operation: run_reference and run_unpartitioned
  programs_per_s   programs completed per second of measurement
  op_p50_ms        median operation latency
  op_p95_ms        95th percentile operation latency (sample count printed)

Every time is scaled for host speed (see CAL_NOMINAL_S below); the raw ones
are kept in the run record.  Failures appear as ``failed`` out of
``attempted`` in the result line; their share is printed as failed_share.

Per-layer metrics (``--trace 1``) and the end-to-end metric each should move:

  partition_s on partition_wide, op_p50_ms/op_p95_ms on corpus_diff:
      lexer.tokenize_s lexer.tokens lexer.tokens_per_s
      parser.parse_s (includes lexing) parser.classes parser.methods
      validate.validate_s validate.violations
      callgraph.build_s callgraph.nodes callgraph.reachable
      plan.compute_images_s plan.relays_synthesized plan.relays_kept
      plan.relay_keep_ratio emit.emit_s emit.image_bytes
  run_s on partition_wide:
      emit.load_plan_s
  run_s and reference_s on interp_loop:
      interp.us_per_iter single.run_reference_s single.run_unpartitioned_s
  run_s and peak_rss_mb on boundary_churn:
      dual.init_s dual.run_main_s dual.construct_s dual.call_s dual.force_gc_s
      dual.ecalls dual.ocalls dual.shim_ocalls dual.remove_calls dual.sim_cycles
      heap.allocations heap.gc_runs heap.gc_cycles heap.swept_objects
      heap.sweep_ratio heap.live_proxies heap.registry_size
      heap.registry_over_live
      wire.encode_s wire.decode_s wire.bytes_serialized wire.bytes_per_s
  tracing itself:
      trace.overhead_ratio (traced over untraced median operation latency)
  doubling ladders, geometric-mean growth per doubling:
      plan.compute_images.growth lexer.tokenize.growth (n = 100..800 classes)
      dual.construct.growth (2k/4k/8k retained proxies)
      interp.growth (loop length 2.5k..20k iterations)

A layer timing is the median, over operations, of that layer's self time
(its span minus the part its child spans cover).  Counts are sums over one
pass of the workload's distinct inputs and must repeat exactly within a run
and between its untraced and traced halves.  dual.construct_s, dual.call_s
and dual.force_gc_s are per-call medians from replaying boundary_churn
rounds through DualRuntime's host-driving API; interp.us_per_iter is the
reference run's time per generated loop iteration on the longest rung of the
loop ladder; the heap sweep numbers come from that replay's collections;
heap.registry_over_live is (registry + 1) / (live proxies + 1) over a pass.
Every traced run makes the same replay and ladders, seeded by ``--seed``.
"""

from __future__ import annotations

import gc
import importlib
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import Tracer, self_times
from workloads import SIZES, WORKLOADS, Churn, Unit, Workload, loop_unit

SETUP_REPEATS = 3
SETUP_CALS = 5

# The speed of a shared host drifts by 20% and more within minutes, and raw
# medians drift with it.  So every reported time is scaled to a host on which
# calibrate() takes CAL_NOMINAL_S.  calibrate() runs between operations, at
# most once per CAL_EVERY_S, and each operation is scaled by the median of the
# CAL_WINDOW calibrations around it.  A change to epart moves the measured
# work but not the calibration.  Raw timings stay in the run record.
CAL_NOMINAL_S = 0.004
CAL_EVERY_S = 0.05
CAL_WINDOW = 5

LADDER = {
    "full": {"classes": (100, 200, 400, 800), "proxies": (2000, 4000, 8000),
             "iters": (2500, 5000, 10000, 20000)},
    "tiny": {"classes": (4, 8), "proxies": (8, 16), "iters": (10, 20)},
}

# name -> unit, in report order.
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "partition_s": "s", "run_s": "s",
    "reference_s": "s", "programs_per_s": "1/s", "op_p50_ms": "ms",
    "op_p95_ms": "ms",
}

# Counts summed per pass, keyed by the unit counter that feeds them.
_PASS_COUNTS = {
    "lexer.tokens": "tokens", "parser.classes": "classes",
    "parser.methods": "methods", "validate.violations": "violations",
    "callgraph.nodes": "cg_nodes", "callgraph.reachable": "cg_reachable",
    "plan.relays_synthesized": "relays_synthesized",
    "plan.relays_kept": "relays_kept", "emit.image_bytes": "image_bytes",
    "dual.ecalls": "ecalls", "dual.ocalls": "ocalls",
    "dual.shim_ocalls": "shim_ocalls", "dual.remove_calls": "remove_calls",
    "dual.sim_cycles": "dual_cycles", "heap.allocations": "allocations",
    "heap.gc_runs": "gc_runs", "heap.gc_cycles": "gc_cycles",
    "heap.live_proxies": "live_proxies", "heap.registry_size": "registry_size",
    "wire.bytes_serialized": "bytes_serialized",
}

# Layer timings: metric -> span name.
_SPAN_TIMES = {
    "lexer.tokenize_s": "lexer.tokenize", "parser.parse_s": "parser.parse",
    "validate.validate_s": "validate.validate",
    "callgraph.build_s": "callgraph.build",
    "plan.compute_images_s": "plan.compute_images", "emit.emit_s": "emit.emit",
    "emit.load_plan_s": "emit.load_plan", "dual.init_s": "dual.init",
    "dual.run_main_s": "dual.run_main",
    "single.run_reference_s": "single.run_reference",
    "single.run_unpartitioned_s": "single.run_unpartitioned",
}

PER_LAYER = {
    **{m: "s" for m in _SPAN_TIMES},
    **{m: "count" for m in _PASS_COUNTS},
    "emit.image_bytes": "B", "wire.bytes_serialized": "B",
    "dual.sim_cycles": "cycles", "heap.gc_cycles": "cycles",
    "lexer.tokens_per_s": "1/s", "plan.relay_keep_ratio": "ratio",
    "interp.us_per_iter": "us",
    "dual.construct_s": "s", "dual.call_s": "s", "dual.force_gc_s": "s",
    "heap.swept_objects": "count", "heap.sweep_ratio": "ratio",
    "heap.registry_over_live": "ratio",
    "wire.encode_s": "s", "wire.decode_s": "s", "wire.bytes_per_s": "B/s",
    "trace.overhead_ratio": "ratio",
    "plan.compute_images.growth": "ratio", "lexer.tokenize.growth": "ratio",
    "dual.construct.growth": "ratio", "interp.growth": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here, e.g. the source tree is missing."""


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key: int, kids: list):
        self.key = key
        self.kids = kids

    def total(self, seen: dict) -> int:
        seen[self.key] = seen.get(self.key, 0) + 1
        return self.key + sum(k.total(seen) for k in self.kids)


def _tree(depth: int, key: int) -> _Node:
    kids = [_tree(depth - 1, key * 3 + i) for i in range(3)] if depth else []
    return _Node(key % 1009, kids)


def calibrate() -> float:
    """Time a fixed pure-Python job of the kinds epart does: allocation,
    method calls, dict updates and integer arithmetic.

    Python's cyclic collector is paused meanwhile, because its cost depends on
    what the process holds, not on the host's speed.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        acc = _tree(7, 1).total({})
        for i in range(6000):
            acc = (acc * 31 + i) % 1000003
        return perf_counter() - t0
    finally:
        gc.enable()


def speed_scale(cals: list[float]) -> float:
    """Factor that turns raw seconds into seconds on the nominal host."""
    return CAL_NOMINAL_S / statistics.median(cals)


# -- the toolchain's public API ---------------------------------------------------

def load_api(src: Path) -> SimpleNamespace:
    """Import epart afresh from `src` and collect the calls the benchmark makes."""
    for name in [m for m in sys.modules if m == "epart" or m.startswith("epart.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        epart = importlib.import_module("epart")
    except ImportError as e:
        raise BenchError(f"cannot import epart from {src}: {e}") from e
    if not Path(epart.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"epart was imported from {epart.__file__}, not {src}")
    from epart.bench import SyntheticSpec, generate_program, generate_synthetic
    from epart.dsl.ast import Annotation
    from epart.dsl.lexer import tokenize
    from epart.partition import CONCRETE, build_call_graph
    from epart.runtime import TRUSTED, UNTRUSTED, wire
    return SimpleNamespace(
        parse_program=epart.parse_program, validate=epart.validate,
        compute_images=epart.compute_images, emit=epart.emit,
        load_plan=epart.load_plan, DualRuntime=epart.DualRuntime,
        run_reference=epart.run_reference,
        run_unpartitioned=epart.run_unpartitioned,
        tokenize=tokenize, build_call_graph=build_call_graph,
        wire_encode=wire.encode, wire_decode=wire.decode,
        SyntheticSpec=SyntheticSpec, generate_synthetic=generate_synthetic,
        generate_program=generate_program, Annotation=Annotation,
        CONCRETE=CONCRETE, TRUSTED=TRUSTED, UNTRUSTED=UNTRUSTED,
        version=epart.__version__)


# -- one operation --------------------------------------------------------------------

def check_unit(api, unit: Unit, dual, ref, enc, rt) -> list[str]:
    """Mismatches between one unit's three runs and its oracle."""
    problems = []
    runs = (("dual", dual), ("reference", ref), ("unpartitioned", enc))
    want_t = ref.transcript if unit.transcript is None else unit.transcript
    want_v = ref.vfs if unit.vfs is None else unit.vfs
    for label, res in runs:
        if res.transcript != want_t:
            problems.append(f"{label} transcript differs from the oracle")
        if res.vfs != want_v:
            problems.append(f"{label} file system differs from the oracle")
    if unit.ecalls is not None and dual.total("ecalls") != unit.ecalls:
        problems.append(f"ecalls {dual.total('ecalls')} != {unit.ecalls}")
    if unit.shim_ocalls is not None and dual.shim_ocalls != unit.shim_ocalls:
        problems.append(f"shim ocalls {dual.shim_ocalls} != {unit.shim_ocalls}")
    if unit.check_registry:
        problems += registry_problems(api, rt)
    return problems


def registry_problems(api, rt) -> list[str]:
    """After untrusted code scanned, the trusted registry equals its live
    proxies; the other registry may only over-approximate."""
    t, u = api.TRUSTED, api.UNTRUSTED
    problems = []
    if rt.registry_hashes(t) != rt.live_proxy_hashes(u):
        problems.append("trusted registry != live untrusted proxies")
    if not rt.registry_hashes(u) >= rt.live_proxy_hashes(t):
        problems.append("untrusted registry misses a live trusted proxy")
    return problems


def relay_candidates(program) -> int:
    """Relays compute_images synthesizes: every non-static method of an
    annotated class, constructors included."""
    return sum(1 for c in program.classes if c.annotation.name != "NEUTRAL"
               for m in c.methods if not m.is_static)


def run_unit(api, unit: Unit, tr: Tracer, op: str, workdir: Path) -> dict:
    """The command pipeline for one program; returns its timings and counts."""
    t0 = perf_counter()
    with tr.span("partition", op):
        with tr.span("parser.parse", op):
            program = api.parse_program(unit.source)
        with tr.span("validate.validate", op):
            report = api.validate(program)
        with tr.span("plan.compute_images", op):
            plan = api.compute_images(program)
        with tr.span("emit.emit", op):
            paths = api.emit(plan, workdir)
    t1 = perf_counter()
    with tr.span("run", op):
        with tr.span("emit.load_plan", op):
            loaded = api.load_plan(workdir)
        with tr.span("dual.init", op):
            rt = api.DualRuntime(loaded)
        with tr.span("dual.run_main", op):
            dual = rt.run_main()
    t2 = perf_counter()
    with tr.span("reference", op):
        with tr.span("single.run_reference", op):
            ref = api.run_reference(program)
        with tr.span("single.run_unpartitioned", op):
            enc = api.run_unpartitioned(program)
    t3 = perf_counter()
    with tr.span("oracle", op):
        problems = check_unit(api, unit, dual, ref, enc, rt)
    counts = {
        "classes": len(program.classes),
        "methods": sum(len(c.methods) for c in program.classes),
        "violations": len(report.violations),
        "relays_synthesized": relay_candidates(program),
        "relays_kept": len(plan.trusted_image.relays) + len(plan.untrusted_image.relays),
        "image_bytes": sum(p.stat().st_size for p in paths),
        "ecalls": dual.total("ecalls"), "ocalls": dual.total("ocalls"),
        "shim_ocalls": dual.shim_ocalls, "remove_calls": dual.remove_calls,
        "dual_cycles": dual.total_cycles, "reference_cycles": ref.total_cycles,
        "unpartitioned_cycles": enc.total_cycles,
        "allocations": dual.total("allocations"), "gc_runs": dual.total("gc_runs"),
        "gc_cycles": dual.total("gc_cycles"), "live_proxies": dual.total("live_proxies"),
        "registry_size": dual.total("mirror_registry_size"),
        "bytes_serialized": dual.total("bytes_serialized"),
    }
    return {"partition": t1 - t0, "run": t2 - t1, "reference": t3 - t2,
            "counts": counts, "problems": problems,
            "program": program, "plan": plan}


def probe_unit(api, unit: Unit, result: dict, tr: Tracer, op: str) -> dict:
    """Layer calls the pipeline makes only inside other layers: lexing on its
    own, and one call-graph build per side over the plan's surviving relays."""
    program, plan = result["program"], result["plan"]
    ann, concrete = api.Annotation, api.CONCRETE
    main_cls, main_m = program.main_location()
    t_seeds = [(concrete, r.class_name, r.method_name)
               for r in plan.trusted_image.relays]
    u_seeds = [(concrete, main_cls.name, main_m.name)] + [
        (concrete, r.class_name, r.method_name) for r in plan.untrusted_image.relays]
    with tr.span("probe", op):
        with tr.span("lexer.tokenize", op):
            tokens = api.tokenize(unit.source)
        graphs = []
        for side, seeds in ((ann.TRUSTED, t_seeds), (ann.UNTRUSTED, u_seeds)):
            with tr.span("callgraph.build", op):
                graphs.append(api.build_call_graph(program, side, seeds))
    return {"tokens": len(tokens),
            "cg_nodes": sum(len(g.nodes) for g in graphs),
            "cg_reachable": sum(len(g.reachable) for g in graphs)}


class Phase:
    """Samples of one measuring phase and the calibrations taken during it."""

    def __init__(self):
        self.samples: list[dict] = []
        self.cals: list[float] = []

    @property
    def scale(self) -> float:
        return speed_scale(self.cals)

    def median_latency(self) -> float:
        return statistics.median(s["latency"] * s["scale"] for s in self.samples)


class Runner:
    """Runs operations, keeps their samples and enforces determinism."""

    def __init__(self, api, wl: Workload, workdir: Path):
        self.api = api
        self.wl = wl
        self.workdir = workdir
        self.first: dict[int, list[dict]] = {}  # op index -> per-unit counts
        self.attempted = 0
        self.failures: list[str] = []
        self.op_counter = 0

    def fail(self, what: str) -> None:
        self.failures.append(what)
        if len(self.failures) <= 5:
            print(f"FAILED: {what}", file=sys.stderr)

    def run_op(self, idx: int, tr: Tracer, probe: bool) -> dict | None:
        op = f"op{self.op_counter}"
        self.op_counter += 1
        self.attempted += 1
        units = self.wl.ops[idx]
        tokens = 0
        try:
            t0 = perf_counter()
            with tr.span("op", op):
                results = [run_unit(self.api, u, tr, op, self.workdir) for u in units]
            latency = perf_counter() - t0
            if probe:
                for u, r in zip(units, results):
                    r["counts"].update(probe_unit(self.api, u, r, tr, op))
                tokens = sum(r["counts"]["tokens"] for r in results)
        except Exception:
            self.fail(f"{self.wl.name} op {idx}: {traceback.format_exc()}")
            return None
        problems = [p for r in results for p in r["problems"]]
        counts = [r["counts"] for r in results]
        seen = self.first.setdefault(idx, counts)
        for a, b in zip(seen, counts):
            if any(a[k] != b[k] for k in a.keys() & b.keys()):
                problems.append("cycles or counts differ from the first run")
            a.update(b)
        if problems:
            self.fail(f"{self.wl.name} op {idx}: {'; '.join(problems)}")
            return None
        return {"op": op, "latency": latency, "programs": len(units),
                "tokens": tokens,
                **{k: sum(r[k] for r in results)
                   for k in ("partition", "run", "reference")}}

    def measure(self, seconds: float, tr: Tracer, probe: bool = False) -> "Phase":
        """Cycle through the inputs for `seconds`, and at least once over all."""
        phase = Phase()
        start = last_cal = perf_counter()
        phase.cals.append(calibrate())
        k = 0
        while k < len(self.wl.ops) or perf_counter() - start < seconds:
            if perf_counter() - last_cal >= CAL_EVERY_S:
                phase.cals.append(calibrate())
                last_cal = perf_counter()
            s = self.run_op(k % len(self.wl.ops), tr, probe)
            if s is not None:
                s["cal_index"] = len(phase.cals)
                phase.samples.append(s)
            k += 1
        phase.cals.append(calibrate())
        half = CAL_WINDOW // 2
        for s in phase.samples:
            lo = max(0, s["cal_index"] - half - 1)
            s["scale"] = speed_scale(phase.cals[lo:lo + CAL_WINDOW])
        return phase

    def pass_counts(self) -> dict[str, int]:
        """Counts summed over one pass of the distinct inputs."""
        total: dict[str, int] = {}
        for units in self.first.values():
            for c in units:
                for k, v in c.items():
                    total[k] = total.get(k, 0) + v
        return total


# -- set-up ----------------------------------------------------------------------------

def setup(root: Path, name: str, seed: int, size: str, workdir: Path):
    """Import, generate the inputs and warm up with one operation.

    Returns the API, the workload, the raw set-up time and calibrations
    taken around it.
    """
    cals = [calibrate() for _ in range(SETUP_CALS)]
    t0 = perf_counter()
    api = load_api(root / "src")
    wl = WORKLOADS[name](api, seed, SIZES[size])
    Runner(api, wl, workdir).run_op(0, Tracer(False), probe=False)
    elapsed = perf_counter() - t0
    cals += [calibrate() for _ in range(SETUP_CALS)]
    return api, wl, elapsed, cals


# -- probes made by every traced run -------------------------------------------------

def growth(times: list[float]) -> float:
    """Geometric-mean growth factor per doubling along a ladder."""
    return (times[-1] / times[0]) ** (1 / (len(times) - 1))


def replay_churn(api, tr: Tracer, churn: Churn, plan, op: str,
                 calls: bool = True) -> tuple[float, list]:
    """boundary_churn rounds through DualRuntime's host-driving API.

    Returns the time spent constructing and each round's GcStats.
    """
    u = api.UNTRUSTED
    rt = api.DualRuntime(plan)
    construct_time, stats = 0.0, []
    for r in range(churn.rounds):
        cells = []
        t0 = perf_counter()
        for i in range(churn.cells):
            with tr.span("dual.construct", op):
                cells.append(rt.construct(u, "Cell", [r * churn.cells + i]))
        construct_time += perf_counter() - t0
        if calls:
            words = rt.make_list(u, list(churn.words))
            for i, cell in enumerate(cells):
                note = rt.construct(u, "Note", [i % churn.k])
                with tr.span("dual.call", op):
                    got = rt.call(u, cell, "take", [words, note], pin=False)
                if got != churn.take(r * churn.cells + i, i):
                    raise AssertionError(f"take() returned {got}")
        del cells
        rt.clear_pins(u)
        with tr.span("dual.force_gc", op):
            stats.append(rt.force_gc(u))
        problems = registry_problems(api, rt)
        if problems:
            raise AssertionError("; ".join(problems))
    return construct_time, stats


def traced_probes(api, runner: Runner, tr: Tracer, seed: int, size: str) -> dict:
    """Host-driving replay, wire round trips and the doubling ladders."""
    out: dict[str, float] = {}
    sizes, ladder = SIZES[size], LADDER[size]

    def attempt(what, fn):
        runner.attempted += 1
        try:
            return fn()
        except Exception:
            runner.fail(f"{what}: {traceback.format_exc()}")
            return None

    churn = Churn.draw(random.Random(seed), sizes["churn_cells"], sizes["churn_rounds"])
    plan = None

    def replay():
        nonlocal plan
        plan = api.compute_images(api.parse_program(churn.source()))
        with tr.span("replay", "replay"):
            _, stats = replay_churn(api, tr, churn, plan, "replay")
        swept = sum(s.swept_objects for s in stats)
        visited = swept + sum(s.live_objects for s in stats)
        out["heap.swept_objects"] = swept
        out["heap.sweep_ratio"] = swept / visited

    def wire():
        values = runner.wl.wire_values
        blobs = [api.wire_encode(v) for v in values]
        if [api.wire_decode(b) for b in blobs] != values:
            raise AssertionError("wire round trip changed a value")
        enc, dec = [], []
        for i in range(7):
            with tr.span("wire.encode", "wire") as s:
                for v in values:
                    api.wire_encode(v)
            enc.append(s.end - s.start)
            with tr.span("wire.decode", "wire") as s:
                for b in blobs:
                    api.wire_decode(b)
            dec.append(s.end - s.start)
        out["wire.encode_s"] = statistics.median(enc)
        out["wire.decode_s"] = statistics.median(dec)
        out["wire.bytes_per_s"] = sum(map(len, blobs)) / out["wire.encode_s"]

    def partition_ladder():
        tok, ci = [], []
        for n in ladder["classes"]:
            op = f"ladder.classes{n}"
            src = api.generate_synthetic(api.SyntheticSpec(
                n_classes=n, pct_untrusted=50, workload="io", seed=seed))
            with tr.span("ladder", op):
                with tr.span("lexer.tokenize", op) as s:
                    api.tokenize(src)
                tok.append(s.end - s.start)
                program = api.parse_program(src)
                with tr.span("plan.compute_images", op) as s:
                    api.compute_images(program)
                ci.append(s.end - s.start)
        out["lexer.tokenize.growth"] = growth(tok)
        out["plan.compute_images.growth"] = growth(ci)

    def proxy_ladder():
        times = []
        for n in ladder["proxies"]:
            rung = Churn(churn.words, churn.p, churn.k, n, 1)
            with tr.span("ladder", f"ladder.proxies{n}"):
                t, _ = replay_churn(api, Tracer(False), rung, plan,
                                    f"ladder.proxies{n}", calls=False)
            times.append(t)
        out["dual.construct.growth"] = growth(times)

    def loop_ladder():
        rng = random.Random(seed)
        times = []
        for n in ladder["iters"]:
            unit = loop_unit(rng, n)
            program = api.parse_program(unit.source)
            op = f"ladder.iters{n}"
            with tr.span("ladder", op):
                with tr.span("single.run_reference", op) as s:
                    res = api.run_reference(program)
            if res.transcript != unit.transcript:
                raise AssertionError("loop ladder transcript differs from the oracle")
            times.append(s.end - s.start)
        out["interp.growth"] = growth(times)
        out["interp.us_per_iter"] = times[-1] / ladder["iters"][-1] * 1e6

    for what, fn in (("replay", replay), ("wire", wire),
                     ("partition ladder", partition_ladder),
                     ("proxy ladder", proxy_ladder), ("loop ladder", loop_ladder)):
        attempt(what, fn)
    return out


# -- metrics -------------------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(phase: Phase, setups: list[tuple[float, float]],
               scaled: bool = True) -> dict:
    """Times scaled to the nominal host, or raw ones.  `setups` holds each
    set-up's time and scale."""
    samples = phase.samples
    k = [s["scale"] if scaled else 1.0 for s in samples]

    def median(key: str) -> float:
        return statistics.median(s[key] * f for s, f in zip(samples, k))

    latency = [s["latency"] * 1e3 * f for s, f in zip(samples, k)]
    return {
        "setup_s": statistics.median(t * (f if scaled else 1.0) for t, f in setups),
        "peak_rss_mb": peak_rss_mb(),
        "partition_s": median("partition"),
        "run_s": median("run"),
        "reference_s": median("reference"),
        "programs_per_s": sum(s["programs"] for s in samples) / sum(latency) * 1e3,
        "op_p50_ms": statistics.median(latency),
        "op_p95_ms": percentile(latency, 95),
    }


def layer_self_times(tr: Tracer, ops: set[str]) -> dict[str, dict[str, float]]:
    """Per layer and operation, the summed self time of the layer's spans."""
    own = self_times(tr.spans)
    per_op: dict[str, dict[str, float]] = {}
    for s in tr.spans:
        if s.op in ops:
            d = per_op.setdefault(s.name, {})
            d[s.op] = d.get(s.op, 0.0) + own[s.id]
    return per_op


def span_median(tr: Tracer, name: str, op: str) -> float:
    return statistics.median(s.end - s.start for s in tr.spans
                             if s.name == name and s.op == op)


def per_layer(runner: Runner, tr: Tracer, traced: Phase, untraced: Phase,
              probes: dict) -> dict:
    counts = runner.pass_counts()
    per_op = layer_self_times(tr, {s["op"] for s in traced.samples})
    m = {metric: statistics.median(per_op[span].values())
         for metric, span in _SPAN_TIMES.items()}
    m.update({metric: counts[key] for metric, key in _PASS_COUNTS.items()})
    m["lexer.tokens_per_s"] = (sum(s["tokens"] for s in traced.samples)
                               / sum(per_op["lexer.tokenize"].values()))
    m["plan.relay_keep_ratio"] = counts["relays_kept"] / counts["relays_synthesized"]
    # Smoothed by one so that a pass without proxies reads 1, not 0/0.
    m["heap.registry_over_live"] = ((counts["registry_size"] + 1)
                                    / (counts["live_proxies"] + 1))
    for name in ("construct", "call", "force_gc"):
        m[f"dual.{name}_s"] = span_median(tr, f"dual.{name}", "replay")
    m.update(probes)
    for k, unit in PER_LAYER.items():
        if unit in ("s", "us"):
            m[k] *= traced.scale
        elif unit.endswith("/s"):
            m[k] /= traced.scale
    m["trace.overhead_ratio"] = traced.median_latency() / untraced.median_latency()
    return m


# -- one benchmark run -------------------------------------------------------------

def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """One benchmark run; returns the run record (metrics, counts, spans)."""
    workdir = root / "perfbench" / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(root, name, seed, seconds, trace, size, workdir)
    finally:
        shutil.rmtree(workdir)


def _run(root, name, seed, seconds, trace, size, workdir) -> dict:
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        api, wl, t, cals = setup(root, name, seed, size, workdir)
        setups.append((t, speed_scale(cals)))
    runner = Runner(api, wl, workdir)
    # Set-up leftovers are long-lived; keep the collector from rescanning them.
    gc.collect()
    gc.freeze()
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "revision": git_revision(root),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "epart_version": api.version, "inputs_skipped": wl.skipped,
    }
    if trace:
        untraced = runner.measure(seconds / 2, Tracer(False))
        tr = Tracer(True)
        traced = runner.measure(seconds / 2, tr, probe=True)
        probes = traced_probes(api, runner, tr, seed, size)
        ok = traced.samples and untraced.samples and not runner.failures
        metrics = per_layer(runner, tr, traced, untraced, probes) if ok else {}
        units = PER_LAYER
        record["spans"] = tr.as_records()
    else:
        phase = runner.measure(seconds, Tracer(False))
        metrics, raw = {}, {}
        if phase.samples:
            metrics = end_to_end(phase, setups)
            raw = end_to_end(phase, setups, scaled=False)
        units = END_TO_END
        record.update(samples=len(phase.samples), raw_metrics=raw,
                      speed_scale=phase.scale, setups=setups,
                      calibrations=phase.cals, operations=[
                          {k: s[k] for k in ("latency", "partition", "run",
                                             "reference", "scale")}
                          for s in phase.samples])
    counts = runner.pass_counts()
    record.update({
        "attempted": runner.attempted, "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if k in metrics},
        "simulated_cycles": {k: counts.get(f"{k}_cycles", 0)
                             for k in ("dual", "reference", "unpartitioned")},
        "pass_counts": counts,
    })
    return record
