"""Measure several revisions with this checkout's benchmark harness.

    python3 tools/trajectory.py REV [REV ...]

Each REV's src/ tree is unpacked with `git archive` under a temporary
directory.  Then every round runs each perfbench workload on every
revision in turn, so drift of the host's speed spreads over the revisions
instead of landing on one.  Each run is a child process (so it reports its
own peak memory) that calls perfbench's harness.run_workload on the
unpacked tree; the harness imports epart from it with harness.load_api.
The seed, the rounds and each run's seconds are fixed below, so every
rewrite of the record stays comparable with the last.

The result is BENCH_trajectory.json at the root of this checkout, rewritten
on every call, and a markdown table on stdout.  Per workload and revision
it holds, for every end-to-end metric, the scaled and the raw best of the
rounds with their spread ((worst - best) / best), plus the simulated cycles
and pass counts, which the rounds of one revision must agree on.  A
deliberate change to the cost model or the partition makes them differ
between revisions; the table marks each workload where they do.

This takes minutes, so it is a tool to run by hand, not a test.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / "BENCH_trajectory.json"
SEED = 41
ROUNDS = 3
SECONDS = 5.0

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(rev: str, dest: Path) -> None:
    """REV's src/ tree under dest."""
    data = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                          cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_one(tree: str, workload: str) -> int:
    """Child process: one untraced run; its record's summary as JSON."""
    # perfbench's own limit: a runaway input fails its run, not the host.
    from run import ADDRESS_SPACE_LIMIT, run_workload
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_SPACE_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, hard))
    record = run_workload(Path(tree), workload, SEED, SECONDS, False)
    print(json.dumps({k: record[k] for k in (
        "metrics", "raw_metrics", "simulated_cycles", "pass_counts",
        "attempted", "failed", "epart_version")}))
    return 0


def measure(tree: Path, workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--one", str(tree),
         workload], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} on {tree.name}: exited with "
                         f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def best_of(values: list[float], higher_is_better: bool) -> dict:
    best = max(values) if higher_is_better else min(values)
    worst = min(values) if higher_is_better else max(values)
    return {"best": best, "spread": abs(worst - best) / best if best else 0.0,
            "runs": values}


def summarise(runs: list[dict]) -> dict:
    """One revision's rounds of one workload."""
    first = runs[0]
    out: dict = {"scaled": {}, "raw": {}}
    for name, m in first["metrics"].items():
        higher = m["unit"].startswith("1/")
        out["scaled"][name] = {"unit": m["unit"], **best_of(
            [r["metrics"][name]["value"] for r in runs], higher)}
        out["raw"][name] = {"unit": m["unit"], **best_of(
            [r["raw_metrics"][name] for r in runs], higher)}
    out["simulated_cycles"] = first["simulated_cycles"]
    out["pass_counts"] = first["pass_counts"]
    out["rounds_agree"] = all(
        (r["simulated_cycles"], r["pass_counts"]) ==
        (first["simulated_cycles"], first["pass_counts"]) for r in runs)
    out["attempted"] = sum(r["attempted"] for r in runs)
    out["failed"] = sum(r["failed"] for r in runs)
    out["epart_version"] = first["epart_version"]
    return out


def table(result: dict) -> str:
    revs = [r["rev"] for r in result["revisions"]]
    lines = ["| workload | metric | " + " | ".join(revs) + " |",
             "|---|---|" + "---|" * len(revs)]
    for workload, per_rev in result["workloads"].items():
        cols = [per_rev[rev] for rev in revs]
        same = all((c["simulated_cycles"], c["pass_counts"]) ==
                   (cols[0]["simulated_cycles"], cols[0]["pass_counts"])
                   for c in cols)
        for name in cols[0]["scaled"]:
            cells = [f"{c['scaled'][name]['best']:.4g} "
                     f"(±{c['scaled'][name]['spread'] * 100:.0f}%)" for c in cols]
            lines.append(f"| {workload} | `{name}` | " + " | ".join(cells) + " |")
        counts = [f"{c['failed']} of {c['attempted']} failed"
                  + ("" if c["rounds_agree"] else ", rounds disagree")
                  for c in cols]
        lines.append(f"| {workload} | cycles and counts "
                     f"{'equal' if same else 'DIFFER'} | " + " | ".join(counts)
                     + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("revs", nargs="+", metavar="REV")
    args = ap.parse_args(argv)
    revisions = [{"rev": git("rev-parse", "--short", rev),
                  "commit": git("rev-parse", rev),
                  "subject": git("log", "-1", "--format=%s", rev)}
                 for rev in args.revs]
    runs: dict = {w: {r["rev"]: [] for r in revisions} for w in WORKLOADS}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for r in revisions:
            trees[r["rev"]] = Path(tmp) / r["rev"]
            unpack(r["commit"], trees[r["rev"]])
        for k in range(ROUNDS):
            for workload in WORKLOADS:
                for r in revisions:
                    print(f"round {k + 1}: {workload} at {r['rev']}",
                          file=sys.stderr)
                    runs[workload][r["rev"]].append(
                        measure(trees[r["rev"]], workload))
    result = {
        "harness": f"perfbench/ at {git('rev-parse', '--short', 'HEAD')}",
        "seed": SEED, "seconds": SECONDS, "rounds": ROUNDS,
        "python": platform.python_version(), "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "revisions": revisions,
        "workloads": {w: {rev: summarise(rs) for rev, rs in per.items()}
                      for w, per in runs.items()},
    }
    OUT.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(table(result))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        sys.exit(run_one(*sys.argv[2:4]))
    sys.exit(main())
