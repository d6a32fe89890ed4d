"""Run one tree of epart over a fixed set of programs and record, per run,
everything a crossing can change; or compare two such records.

    python3 tools/differential.py run TREE OUT.json
    python3 tools/differential.py compare PARENT.json CHANGE.json

`run` imports epart from TREE/src.  The inputs are every program of
perfbench's four workloads at full size and seed 41 (built by this
checkout's perfbench/workloads.py with TREE's generators), the programs
bench.progen's generate_program makes for seeds 0-199, and the three
fixtures under tests/fixtures.  Each runs in all three modes with
trace=True: partitioned (emit, load_plan, DualRuntime), unpartitioned (the
whole program in the enclave) and reference (the whole program on the
host).  For each run the record keeps the transcript, the VFS, the cycles
by source of each side, the fault's class and text if the run raised, and
every trace line (`bytes=` included) as one JSON document; OUT.json keeps
each run's SHA-256 of that document, its trace line count and whether it
faulted.

`compare` prints the runs whose digests differ and exits 1 if any does.
It is a tool to run by hand on two trees, not a test.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SEED = 41
PROGEN_SEEDS = range(200)
FIXTURES = ("bank", "every_node", "public_field")


def inputs(api) -> list[tuple[str, str]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import SIZES, WORKLOADS
    found = []
    for name, make in WORKLOADS.items():
        for i, op in enumerate(make(api, SEED, SIZES["full"]).ops):
            for j, unit in enumerate(op):
                found.append((f"{name}/{i}.{j}", unit.source))
    found += [(f"progen/{s}", api.generate_program(s)) for s in PROGEN_SEEDS]
    found += [(f"fixture/{n}", (ROOT / "tests" / "fixtures" / f"{n}.ep")
               .read_text(encoding="utf-8")) for n in FIXTURES]
    return found


def observe(rt, run) -> dict:
    """Run `run`, then read what the runtime `rt` shows."""
    fault = None
    try:
        run()
    except Exception as e:  # a fault is an observation too
        fault = f"{type(e).__name__}: {e}"
    result = rt.result()
    return {"transcript": result.transcript, "vfs": result.vfs,
            "cycles_by_source": result.cycles_by_source, "fault": fault,
            "trace": [ev.line() for ev in result.trace]}


def record(tree: Path) -> dict:
    sys.path.insert(0, str(tree / "src"))
    import epart
    from epart import bench
    from epart.partition.plan import whole_program_plan
    api = SimpleNamespace(parse_program=epart.parse_program,
                          generate_program=bench.generate_program,
                          generate_synthetic=bench.generate_synthetic,
                          SyntheticSpec=bench.SyntheticSpec,
                          run_reference=epart.run_reference)
    runs = {}
    for label, source in inputs(api):
        program = epart.parse_program(source)
        with tempfile.TemporaryDirectory() as tmp:
            epart.emit(epart.compute_images(program), Path(tmp))
            rt = epart.DualRuntime(epart.load_plan(Path(tmp)), trace=True)
        modes = {"dual": rt}
        for mode, enclave in (("unpartitioned", True), ("reference", False)):
            modes[mode] = epart.DualRuntime(
                whole_program_plan(program, enclave=enclave), trace=True)
        for mode, mrt in modes.items():
            seen = observe(mrt, mrt.run_main)
            doc = json.dumps(seen, sort_keys=True).encode("utf-8")
            runs[f"{label}/{mode}"] = {
                "sha256": hashlib.sha256(doc).hexdigest(),
                "trace_lines": len(seen["trace"]),
                "faulted": seen["fault"] is not None}
    return runs


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "run":
        runs = record(Path(argv[1]))
        Path(argv[2]).write_text(json.dumps(runs, sort_keys=True),
                                 encoding="utf-8")
        faults = sum(r["faulted"] for r in runs.values())
        print(f"epart from {Path(sys.modules['epart'].__file__).parent}: "
              f"{len(runs)} runs, {faults} ended in a fault, "
              f"{sum(r['trace_lines'] for r in runs.values())} trace lines")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        a, b = (json.loads(Path(p).read_text(encoding="utf-8"))
                for p in argv[1:])
        differ = sorted(k for k in a.keys() | b.keys()
                        if a.get(k, {}).get("sha256") != b.get(k, {}).get("sha256"))
        for key in differ:
            print(f"differs: {key}")
        print(f"{len(a.keys() & b.keys())} runs on both sides, "
              f"{len(differ)} differ")
        return 1 if differ else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
