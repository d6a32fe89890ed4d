import pytest

from epart.bench import (
    SUITES, SWEEP_STEPS, WORKLOADS, BenchReport, SyntheticSpec,
    generate_corpus, generate_program, generate_synthetic, run_suite,
    sweep_partition_ratio, untrusted_indices,
)
from epart.dsl import parse_program
from epart.partition import compute_images
from epart.runtime import DualRuntime, run_reference
from epart.runtime.costmodel import CostModel
from epart.runtime.heap import UNTRUSTED


class TestSyntheticWorkloads:
    def test_spec_counts(self):
        spec = SyntheticSpec(n_classes=100, pct_untrusted=25)
        assert spec.untrusted_count() == 25
        assert spec.trusted_count() == 75
        assert spec.expected_ecalls() == 150
        assert SyntheticSpec(n_classes=20, pct_untrusted=33).untrusted_count() \
            == round(20 * 33 / 100)

    def test_untrusted_indices_deterministic(self):
        spec = SyntheticSpec(n_classes=50, pct_untrusted=40, seed=7)
        picked = untrusted_indices(spec)
        assert picked == untrusted_indices(spec)
        assert len(picked) == 20
        assert all(0 <= i < 50 for i in picked)
        other = untrusted_indices(
            SyntheticSpec(n_classes=50, pct_untrusted=40, seed=8))
        assert picked != other

    def test_generated_source_is_deterministic(self):
        spec = SyntheticSpec(n_classes=10, pct_untrusted=30, workload="io")
        assert generate_synthetic(spec) == generate_synthetic(spec)

    def test_io_workload_counts(self):
        spec = SyntheticSpec(n_classes=20, pct_untrusted=0, workload="io")
        plan = compute_images(parse_program(generate_synthetic(spec)))
        res = DualRuntime(plan).run_main()
        assert res.metrics[UNTRUSTED].ecalls == 40 == spec.expected_ecalls()
        assert res.shim_ocalls == 20 == spec.expected_shim_ocalls()
        assert res.total("ocalls") == res.shim_ocalls

    def test_cpu_workload_has_no_shims(self):
        spec = SyntheticSpec(n_classes=10, pct_untrusted=0, workload="cpu")
        plan = compute_images(parse_program(generate_synthetic(spec)))
        res = DualRuntime(plan).run_main()
        assert res.metrics[UNTRUSTED].ecalls == 20
        assert res.shim_ocalls == 0

    def test_workload_names(self):
        assert WORKLOADS == ("cpu", "io")
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticSpec(n_classes=4, workload="disk"))

    @pytest.mark.parametrize("pct", [-1, 101])
    def test_pct_untrusted_out_of_range(self, pct):
        with pytest.raises(ValueError, match=r"^pct_untrusted must be within "
                                             r"\[0, 100\]$"):
            generate_synthetic(SyntheticSpec(n_classes=4, pct_untrusted=pct))


class TestProgramGenerator:
    def test_deterministic(self):
        assert generate_program(99) == generate_program(99)
        assert generate_program(99) != generate_program(100)

    def test_generated_programs_parse_and_run_equivalently(self):
        for source in generate_corpus(25, seed=3):
            prog = parse_program(source)
            plan = compute_images(prog)
            dual = DualRuntime(plan).run_main()
            ref = run_reference(prog)
            assert dual.transcript == ref.transcript
            assert dual.vfs == ref.vfs
            assert dual.transcript[-1] == "done"

    def test_generating_walks_no_checker(self, checker_runs):
        """A generated program is checked where it is used, not where it
        is made."""
        generate_corpus(5, seed=1)
        assert checker_runs == []

    def test_corpus_is_seeded(self):
        assert generate_corpus(5, seed=1) == generate_corpus(5, seed=1)
        assert generate_corpus(5, seed=1) != generate_corpus(5, seed=2)


class TestSuites:
    def test_proxy_creation_frozen_values(self):
        r = run_suite("proxy_creation")
        assert r.value("proxy_in_out_cycles") == 13150
        assert r.value("proxy_out_in_cycles") == 13150
        assert r.value("concrete_in_cycles") == 40
        assert r.value("concrete_out_cycles") == 10
        assert r.value("ratio_proxy_in_out_vs_concrete_in") == 328.75
        assert r.value("ratio_proxy_out_in_vs_concrete_out") == 1315.0

    def test_rmi_frozen_values(self):
        r = run_suite("rmi")
        assert r.value("setter_local_in_cycles") == 8
        assert r.value("setter_local_out_cycles") == 2
        assert r.value("setter_cross_out_in_cycles") == 13153
        assert r.value("setter_cross_in_out_cycles") == 13147
        assert r.value("arg_bytes_per_cross_call") == 9

    def test_serialization_delta_law(self):
        r = run_suite("rmi_serialization", invocations=50)
        assert r.value("payload_bytes_per_call") == 21005
        assert r.value("serialize_cycles_per_call") == 21005 * 5
        assert r.value("serialize_cycles_delta") == 50 * 21005 * 5
        assert r.value("take_cycles_per_call") == 118125
        assert r.value("ping_cycles_per_call") == 13100
        ratio = r.value("ratio_take_vs_ping")
        assert ratio == 118125 / 13100
        assert 5.0 <= ratio <= 20.0

    def test_gc_perf_ratio_equals_penalty(self):
        r = run_suite("gc_perf")
        assert r.value("delta_ratio") == 4.0 == r.value("epc_penalty")
        custom = run_suite("gc_perf", model=CostModel(epc_penalty=2.5))
        assert custom.value("delta_ratio") == 2.5

    def test_gc_consistency_rows(self):
        r = run_suite("gc_consistency", cycles=20)
        assert len(r.rows) == 20
        for row in r.rows:
            record = dict(zip(r.columns, row))
            assert record["create_ok"] and record["between_ok"] \
                and record["scan_ok"]
            assert record["registry_after_scan"] == record["live_after_scan"]
            assert record["registry_after_sweep"] >= record["live_after_sweep"]
        assert r.column("removes_total")[-1] == 20

    def test_sweep_small(self):
        r = sweep_partition_ratio(steps=(0, 50, 100), n_classes=10)
        cycles = r.column("total_cycles")
        assert cycles[0] > cycles[1] > cycles[2]
        assert all(r.column("matches_baseline"))
        last = dict(zip(r.columns, r.rows[-1]))
        assert last["total_cycles"] == last["baseline_cycles"]
        assert last["cycles_over_baseline"] == 1.0
        assert r.column("ecalls") == [20, 10, 0]
        assert r.column("shim_ocalls") == [10, 5, 0]

    def test_sweep_rejects_unknown_steps(self):
        with pytest.raises(ValueError):
            sweep_partition_ratio(steps=(0, 37), n_classes=4)

    def test_run_suite_dispatch(self):
        assert set(SUITES) == {
            "proxy_creation", "rmi", "rmi_serialization",
            "gc_perf", "gc_consistency", "class_sweep"}
        r = run_suite("class_sweep", steps=(0, 100), n_classes=4)
        assert r.suite == "class_sweep"
        assert len(r.rows) == 2
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("warmup")


class TestBenchReport:
    def test_csv_shape_and_determinism(self, tmp_path):
        a = run_suite("proxy_creation").to_csv()
        b = run_suite("proxy_creation").to_csv()
        assert a == b
        lines = a.splitlines()
        assert lines[0] == "metric,value"
        assert "proxy_in_out_cycles,13150" in lines
        assert "ratio_proxy_in_out_vs_concrete_in,328.750000" in lines
        out = tmp_path / "r.csv"
        run_suite("proxy_creation").write(out)
        assert out.read_text() == a

    def test_bool_and_float_formatting(self):
        rep = BenchReport("demo", ["a", "b", "c"])
        rep.add(True, 0.5, 3)
        assert rep.to_csv().splitlines()[1] == "1,0.500000,3"

    def test_value_and_column_accessors(self):
        r = run_suite("rmi")
        assert r.value("ops") == 100
        with pytest.raises(KeyError):
            r.value("nope")
        with pytest.raises(ValueError):
            r.column("nope")

    def test_sweep_steps_constant(self):
        assert list(SWEEP_STEPS) == list(range(0, 101, 10))
