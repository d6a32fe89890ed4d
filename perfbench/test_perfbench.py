"""Self-tests of the benchmark: schema, determinism, spans and tiny smoke runs.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import workloads
from run import result_line
from tracing import Span, Tracer, check_spans, self_times

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _keep_epart_modules():
    """The harness re-imports epart; give other tests their modules back."""
    def mine():
        return {k: v for k, v in sys.modules.items()
                if k == "epart" or k.startswith("epart.")}
    saved = mine()
    yield
    for k in mine():
        del sys.modules[k]
    sys.modules.update(saved)


def tiny(name: str, trace: bool, seed: int = 5) -> dict:
    return harness.run_workload(ROOT, name, seed, 0.2, trace, size="tiny")


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_oracle_and_reports_every_metric(name, trace):
    record = tiny(name, trace)
    assert record["failed"] == 0, record["failures"]
    result = result_line(record)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    table = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), k
    json.dumps(result)


def test_non_timing_fields_are_deterministic_for_a_seed():
    first, second = tiny("boundary_churn", True), tiny("boundary_churn", True)
    assert first["pass_counts"] == second["pass_counts"]
    assert first["simulated_cycles"] == second["simulated_cycles"]
    counts = {k for k, u in harness.PER_LAYER.items()
              if u in ("count", "cycles", "B")}
    for k in counts:
        assert first["metrics"][k] == second["metrics"][k], k
    untraced = tiny("boundary_churn", False)
    assert untraced["simulated_cycles"] == first["simulated_cycles"]


def test_traced_run_spans_are_well_formed():
    record = tiny("corpus_diff", True)
    spans = [Span(**s) for s in record["spans"]]
    assert spans and check_spans(spans) == []
    names = {s.name for s in spans}
    assert {"lexer.tokenize", "parser.parse", "plan.compute_images",
            "dual.run_main", "dual.construct", "wire.encode"} <= names


def test_self_time_subtracts_covered_child_time():
    spans = [Span(0, "a", "op", None, 0.0, 10.0),
             Span(1, "b", "op", 0, 1.0, 4.0),
             Span(2, "c", "op", 0, 3.0, 6.0),
             Span(3, "d", "op", 2, 3.5, 4.5)]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 3.0, 2: 2.0, 3: 1.0}
    assert check_spans(spans) == []
    assert check_spans([Span(0, "x", "op", 7, 0.0, 1.0)])  # missing parent


def test_oracle_rejects_a_wrong_expected_output():
    api = harness.load_api(ROOT / "src")
    wl = workloads.interp_loop(api, 1, workloads.SIZES["tiny"])
    wl.ops[0][0].transcript = ["0", "0"]
    runner = harness.Runner(api, wl, ROOT / "perfbench" / "out" / "test-oracle")
    runner.workdir.mkdir(parents=True, exist_ok=True)
    try:
        assert runner.run_op(0, Tracer(False), probe=False) is None
    finally:
        shutil.rmtree(runner.workdir)
    assert runner.failures and "transcript" in runner.failures[0]


def test_loop_oracle_matches_a_direct_computation():
    h, total, xs = 7, 0, []
    for i in range(50):
        h = (h * 1103 + 12345) % 65521
        xs.append(h % 97)
        total = (total + h + xs[i // 2]) % workloads.MOD
    assert workloads.loop_result(7, 50, 1103, 12345, 65521) == \
        (total + 50) % workloads.MOD


def test_corpus_screen_flags_geometric_string_growth():
    api = harness.load_api(ROOT / "src")

    def program(body: str):
        return api.parse_program(f"""@Untrusted
class Main {{
    static main() {{
        var v0: Str = "a";
        var v1: Str = "b";
        var i: Int = 0;
        while (i < 4) {{
            var j: Int = 0;
            while (j < 4) {{
                {body}
                j = j + 1;
            }}
            i = i + 1;
        }}
        print(v0);
    }}
}}
""")

    assert workloads.grows_a_string(program("v0 = v0 + v0;"))
    assert workloads.grows_a_string(program("v1 = v1 + v0; v0 = v0 + v1;"))
    assert not workloads.grows_a_string(program("v0 = v0 + v1;"))


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "interp_loop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
