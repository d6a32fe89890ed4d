"""Summarise the parent/change pair records in this directory as Markdown.

    python3 benchruns/pr17/summarize.py SET [SET ...]

Each SET directory holds parent_N.json.gz and change_N.json.gz, the records
perfbench/run.py wrote for pair N.  For every end-to-end metric this prints
the scaled and the raw medians side by side, with the parent's and the
change's quartiles and the number of pairs the change won, then one row per
run.  A traced set (--trace 1) records per-layer metrics only, scaled; for
it the table lists the per-layer host times.  It also checks that simulated
cycles and pass counts are equal in every run of both sides, and counts
failed operations.
"""

import gzip
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
METRICS = ["setup_s", "peak_rss_mb", "partition_s", "run_s", "reference_s",
           "programs_per_s", "op_p50_ms", "op_p95_ms"]
HIGHER_IS_BETTER = {"programs_per_s"}
MS = {"partition_s", "run_s", "reference_s"}  # shown in ms
LAYERS = ["lexer.tokenize_s", "parser.parse_s", "validate.validate_s",
          "callgraph.build_s", "plan.compute_images_s", "emit.emit_s",
          "emit.load_plan_s", "dual.init_s", "dual.run_main_s",
          "single.run_reference_s", "single.run_unpartitioned_s"]


def load(set_dir: Path, side: str) -> list[dict]:
    runs = []
    for k in range(1, 100):
        path = set_dir / f"{side}_{k}.json.gz"
        if not path.exists():
            break
        with gzip.open(path, "rt") as f:
            runs.append(json.load(f))
    return runs


def fmt(metric: str, v: float) -> str:
    if metric in MS or metric in LAYERS:
        return f"{v * 1e3:.2f}"
    if metric == "setup_s":
        return f"{v:.4f}"
    return f"{v:.3f}" if v < 10 else f"{v:.2f}"


def quartiles(xs: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def table(parent: list[dict], change: list[dict], key: str,
          metrics: list[str]) -> list[str]:
    rows = ["| metric | parent | parent IQR | change | change IQR | change "
            "| change wins |", "|---|---|---|---|---|---|---|"]
    for m in metrics:
        # metrics hold {"value", "unit"} dicts, raw_metrics bare numbers.
        p, c = ([r[key][m]["value"] if key == "metrics" else r[key][m]
                 for r in runs] for runs in (parent, change))
        mp, mc = statistics.median(p), statistics.median(c)
        better = (lambda a, b: a > b) if m in HIGHER_IS_BETTER \
            else (lambda a, b: a < b)
        wins = sum(better(b, a) for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        rows.append(f"| `{m}` | {fmt(m, mp)} | {fmt(m, pq[0])}–{fmt(m, pq[1])} "
                    f"| {fmt(m, mc)} | {fmt(m, cq[0])}–{fmt(m, cq[1])} "
                    f"| {(mc - mp) / mp * 100:+.1f}% | {wins} of {len(p)} |")
    return rows


def summarise(name: str) -> list[str]:
    set_dir = HERE / name
    parent, change = load(set_dir, "parent"), load(set_dir, "change")
    assert parent and len(parent) == len(change), name
    first = parent[0]
    out = [f"### `{name}`: `{first['workload']}` seed {first['seed']}, "
           f"--trace {first['trace']}, {len(parent)} pairs", ""]
    cycles = {json.dumps([r["simulated_cycles"], r["pass_counts"]], sort_keys=True)
              for r in parent + change}
    failed = sum(r["failed"] for r in parent + change)
    out.append(f"Simulated cycles and pass counts equal in every run: "
               f"{'yes' if len(cycles) == 1 else 'NO'}. Failed operations: "
               f"{failed}. Times in ms, `setup_s` in s.")
    if first["trace"]:
        out += ["", "Per-layer self time, scaled:", ""]
        return out + table(parent, change, "metrics", LAYERS) + [""]
    out += ["", "Scaled (the reported metrics):", ""]
    out += table(parent, change, "metrics", METRICS)
    out += ["", "Raw (unscaled host time):", ""]
    out += table(parent, change, "raw_metrics", METRICS)
    out += ["", "| pair | first | parent `partition_s` | change `partition_s` "
            "| parent `op_p50_ms` | change `op_p50_ms` | parent scale "
            "| change scale |", "|---|---|---|---|---|---|---|---|"]
    for k, (p, c) in enumerate(zip(parent, change), start=1):
        pm, cm = p["metrics"], c["metrics"]
        out.append(f"| {k} | {'parent' if k % 2 else 'change'} "
                   f"| {fmt('partition_s', pm['partition_s']['value'])} "
                   f"| {fmt('partition_s', cm['partition_s']['value'])} "
                   f"| {pm['op_p50_ms']['value']:.2f} | {cm['op_p50_ms']['value']:.2f} "
                   f"| {p['speed_scale']:.3f} | {c['speed_scale']:.3f} |")
    return out + [""]


if __name__ == "__main__":
    for name in sys.argv[1:]:
        print("\n".join(summarise(name)))
