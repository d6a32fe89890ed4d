"""End-to-end acceptance checks, one per shipping criterion.

Each test prints a single "criterion N PASS/FAIL" line; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import random

import pytest

from epart.bench import (
    SWEEP_STEPS, SyntheticSpec, generate_corpus, generate_synthetic,
    run_suite, sweep_partition_ratio,
)
from epart.cli import main as cli_main
from epart.dsl import parse_program
from epart.partition import compute_images, emit
from epart.partition.emit import INTERFACE_FILE, TRUSTED_IMG, UNTRUSTED_IMG
from epart.runtime import DualRuntime, run_reference, wire
from epart.runtime.costmodel import CostModel
from epart.runtime.heap import TRUSTED, UNTRUSTED

from test_wire import random_wire_value


def check(n: int, cond: bool, detail: str) -> None:
    status = "PASS" if cond else "FAIL"
    print(f"criterion {n} {status}: {detail}")
    assert cond, f"criterion {n}: {detail}"


def test_criterion_1_oracle_equivalence(bank_program, bank_plan):
    dual = DualRuntime(bank_plan).run_main()
    ref = run_reference(bank_program)
    fixture_ok = dual.transcript == ref.transcript and dual.vfs == ref.vfs

    corpus = generate_corpus(200, seed=0)
    mismatches = 0
    for source in corpus:
        prog = parse_program(source)
        d = DualRuntime(compute_images(prog)).run_main()
        r = run_reference(prog)
        if d.transcript != r.transcript or d.vfs != r.vfs:
            mismatches += 1
    check(1, fixture_ok and mismatches == 0,
          f"fixture + {len(corpus)} generated programs, "
          f"{mismatches} transcript/VFS mismatches")


def test_criterion_2_transition_counts(bank_plan):
    res = DualRuntime(bank_plan).run_main()
    bank_ok = (res.total("ecalls") == 6 and res.total("ocalls") == 0
               and res.shim_ocalls == 0)

    spec = SyntheticSpec(n_classes=100, pct_untrusted=0, workload="io")
    synth = DualRuntime(
        compute_images(parse_program(generate_synthetic(spec)))).run_main()
    synth_ok = (synth.total("ecalls") == 200 == spec.expected_ecalls()
                and synth.shim_ocalls == 100 == spec.expected_shim_ocalls())
    check(2, bank_ok and synth_ok,
          f"fixture 6/0/0, synthetic io n=100 pct=0 -> "
          f"{synth.total('ecalls')} ecalls / {synth.shim_ocalls} shim ocalls")


def test_criterion_3_proxy_pruning(bank_source, bank_plan, tmp_path, capsys):
    src = tmp_path / "bank.ep"
    src.write_text(bank_source)
    plan_dir = tmp_path / "plan"
    assert cli_main(["partition", str(src), "-o", str(plan_dir)]) == 0
    assert cli_main(["inspect", str(plan_dir), "trusted"]) == 0
    out = capsys.readouterr().out
    pruned = "Person proxy: pruned (unreachable)" in out
    assert "Person" not in {p.name for p in bank_plan.trusted_image.proxies}
    with capsys.disabled():
        check(3, pruned, "trusted image inspect reports Person proxy pruned")


def test_criterion_4_proxy_overhead_bands():
    m = CostModel()
    r = run_suite("proxy_creation", model=m)
    in_out = r.value("proxy_in_out_cycles")
    out_in = r.value("proxy_out_in_cycles")
    conc_in = r.value("concrete_in_cycles")
    conc_out = r.value("concrete_out_cycles")
    exact = (
        in_out == m.ecall_cost + m.scaled(m.alloc_cost, True) + m.alloc_cost
        and out_in == m.ocall_cost + m.scaled(m.alloc_cost, True) + m.alloc_cost
        and conc_in == m.scaled(m.alloc_cost, True)
        and conc_out == m.alloc_cost)
    band1 = 10 ** 2.5 <= in_out / conc_in <= 10 ** 4.5
    band2 = 10 ** 3 <= out_in / conc_out < 10 ** 5
    check(4, exact and band1 and band2,
          f"in->out/concrete-in = {in_out / conc_in:.2f}, "
          f"out->in/concrete-out = {out_in / conc_out:.2f}, "
          f"cycle totals match the cost arithmetic")


def test_criterion_5_serialization_impact():
    m = CostModel()
    invocations = 10_000
    r = run_suite("rmi_serialization", model=m, invocations=invocations)
    payload = r.value("payload_bytes_per_call")
    delta = r.value("serialize_cycles_delta")
    expected = invocations * m.serialize_per_byte * payload
    ratio = r.value("ratio_take_vs_ping")
    check(5, delta == expected and 5.0 <= ratio <= 20.0,
          f"delta {delta} == {invocations} x {m.serialize_per_byte} x "
          f"{payload}, payload/bare ratio {ratio:.2f}")


def test_criterion_6_gc_consistency():
    r = run_suite("gc_consistency", cycles=1000)
    bad = [row for row in r.rows
           if not all(dict(zip(r.columns, row))[k]
                      for k in ("create_ok", "between_ok", "scan_ok"))]
    check(6, len(r.rows) == 1000 and not bad,
          f"{len(r.rows)} create/drop/collect cycles, {len(bad)} violations")


def test_criterion_7_gc_penalty_ratio():
    default = run_suite("gc_perf")
    tuned = run_suite("gc_perf", model=CostModel(epc_penalty=10.0))
    ok = (default.value("delta_ratio") == default.value("epc_penalty") == 4.0
          and tuned.value("delta_ratio") == 10.0)
    check(7, ok,
          f"trusted/untrusted gc cycles = {default.value('delta_ratio')} "
          f"(default), {tuned.value('delta_ratio')} (epc_penalty=10)")


def test_criterion_8_partition_sweep_trend():
    io = sweep_partition_ratio(steps=SWEEP_STEPS, workload="io")
    cpu = sweep_partition_ratio(steps=SWEEP_STEPS, workload="cpu")
    io_cycles = io.column("total_cycles")
    cpu_cycles = cpu.column("total_cycles")
    io_trend = all(a > b for a, b in zip(io_cycles, io_cycles[1:]))
    cpu_trend = all(a >= b for a, b in zip(cpu_cycles, cpu_cycles[1:]))
    io_last = dict(zip(io.columns, io.rows[-1]))
    cpu_last = dict(zip(cpu.columns, cpu.rows[-1]))
    at_baseline = (io_last["total_cycles"] == io_last["baseline_cycles"]
                   and cpu_last["total_cycles"] == cpu_last["baseline_cycles"])
    outputs_ok = all(io.column("matches_baseline")) \
        and all(cpu.column("matches_baseline"))
    check(8, io_trend and cpu_trend and at_baseline and outputs_ok,
          f"io strictly decreasing over {list(SWEEP_STEPS)}, cpu "
          f"non-increasing, pct=100 equals the no-enclave baseline")


def test_criterion_9_marshal_roundtrip():
    rng = random.Random(902602)
    failures = 0
    trials = 10_000
    for _ in range(trials):
        value = random_wire_value(rng)
        blob = wire.encode(value)
        decoded = wire.decode(blob)
        if decoded != value or wire.encode(decoded) != blob:
            failures += 1
    check(9, failures == 0,
          f"{trials} random values: decode(encode(v)) == v and "
          f"re-encoding is canonical, {failures} failures")


def test_criterion_10_determinism(bank_source, bank_plan, tmp_path):
    dirs = []
    for name in ("a", "b"):
        d = tmp_path / name
        emit(bank_plan, d)
        dirs.append(d)
    files_same = all(
        (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
        for f in (TRUSTED_IMG, UNTRUSTED_IMG, INTERFACE_FILE))

    runs = [DualRuntime(bank_plan, trace=True).run_main() for _ in range(2)]
    runs_same = (
        runs[0].transcript == runs[1].transcript
        and runs[0].metrics_text() == runs[1].metrics_text()
        and [e.line() for e in runs[0].trace]
        == [e.line() for e in runs[1].trace])

    reports_same = (
        run_suite("rmi").to_csv() == run_suite("rmi").to_csv()
        and sweep_partition_ratio(steps=(0, 100), n_classes=10).to_csv()
        == sweep_partition_ratio(steps=(0, 100), n_classes=10).to_csv())
    check(10, files_same and runs_same and reports_same,
          "re-emitted images, reruns and regenerated reports are "
          "byte-identical")
