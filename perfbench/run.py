"""Benchmark entry point: one workload per process, result as a JSON last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports epart from
its ``src`` directory and writes ``perfbench/out/BENCH_<workload>_s<seed>_t<trace>.json``
(the run record: revision, Python version, nproc, seed, metrics, simulated
cycles and, when traced, every span).  ``all`` runs the four workloads one
after another, each in its own child process.  See ``harness.py`` for what
each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import BenchError, run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A runaway input then fails its operation with MemoryError instead of
# exhausting the host.  Peak use is under 100 MB.
ADDRESS_SPACE_LIMIT = 2 << 30


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def result_line(record: dict) -> dict:
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": record["metrics"]}


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak memory."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v
                                  for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_SPACE_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, hard))
    try:
        record = run_workload(ROOT, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    out = HERE / "out" / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"# {args.workload} seed={args.seed} revision={record['revision']} "
          f"python={record['python']} nproc={record['nproc']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"failed_share={record['failed'] / max(record['attempted'], 1):.4f}")
    if "samples" in record:
        print(f"# operations measured: {record['samples']} "
              "(op_p50_ms and op_p95_ms are over these)")
    print("# simulated cycles per pass: " + " ".join(
        f"{k}={v}" for k, v in record["simulated_cycles"].items()))
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"# record: {out.relative_to(ROOT)}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
