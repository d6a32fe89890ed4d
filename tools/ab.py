"""Compare the host time of two revisions of epart in one process.

    python3 tools/ab.py PARENT CHANGE --workload W [--seed S] [--pairs N]
                        [--calls] [--out FILE]

`git archive REV src/epart` of each revision is unpacked under a temporary
directory as the package epart_a (PARENT) or epart_b (CHANGE).  Every
import inside src/epart is relative, so the two copies load side by side.
Each side gets the namespace of calls perfbench's harness.load_api builds,
and the workload's seeded full-size inputs (perfbench/workloads.py), which
must come out the same on both sides.

A pair runs every operation of the workload once on each side, through
perfbench's harness.run_unit with tracing off, operation by operation; the
side that runs first alternates from pair to pair.  Every run must pass the
harness's oracle, and the two sides must bill the same simulated cycles on
every operation; the tool stops at the first that does not.  For each phase
(partition, run, reference, and the whole operation) it sums a side's time
over the pair and records change / parent.

Both copies share one heap and one cyclic garbage collector, so garbage
one side leaves behind could be collected while the other runs.  The tool
calls gc.collect() before each side runs an operation, outside the timed
phases, so each side starts with no cyclic garbage left by the other; a
collection its own operation triggers still counts in its time.  The
order alternates, so what remains lands on both sides alike over the
pairs.  This cannot separate peak memory or set-up time; use
separate-process runs of perfbench/run.py for those.

With --calls, one more pass follows the timed pairs: every operation
runs once more on each side, untimed, with each phase under its own
cProfile profiler, which counts every Python function call and builtin
call the phase makes.  One-time work both copies share (a raised
recursion limit, a compiled re pattern) is done in the untimed first
pair, before either side is counted.  A phase's count is the sum of the
profiler's raw entries (Profile.getstats), one per code object or
builtin, not pstats' total: pstats keys entries by (file, line, name), so
the generated __init__ or __eq__ of every dataclass, all labelled
<string>, collapse into one entry, and which survives depended on where
each copy's code lay in memory.  So a tree counted against itself reads
the same on both sides.  A count is not a time: it does not move with the
host's load, so it shows whether a change removed work where time ratios
of a few percent are within noise, but it does not weigh a call by its
cost, and the profiler itself slows each call.  Counts recorded with
pstats' total are lower and not comparable.

The JSON (to FILE, or stdout) holds, per phase, each pair's ratio and
times, the median ratio, its quartiles and the pairs the change won, and
with --calls each side's call count per phase.  A summary goes to
stderr.  This takes minutes, so it is a tool to run by
hand, not a test.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from contextlib import contextmanager
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from harness import run_unit  # noqa: E402
from run import ADDRESS_SPACE_LIMIT  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

PHASES = ("partition", "run", "reference", "op")
CYCLES = ("dual_cycles", "reference_cycles", "unpartitioned_cycles")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(rev: str, dest: Path, package: str) -> None:
    """REV's src/epart as dest/package."""
    data = subprocess.run(["git", "archive", "--format=tar", rev, "src/epart"],
                          cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        members = []
        for m in tar.getmembers():
            m.name = package + m.name[len("src/epart"):]
            members.append(m)
        tar.extractall(dest, members=members, filter="data")


def api_for(package: str) -> SimpleNamespace:
    """The calls perfbench's harness.load_api collects, from one copy."""
    def mod(name: str):
        return importlib.import_module(f"{package}.{name}" if name else package)

    epart, bench, runtime = mod(""), mod("bench"), mod("runtime")
    partition = mod("partition")
    return SimpleNamespace(
        parse_program=epart.parse_program, validate=epart.validate,
        compute_images=epart.compute_images, emit=epart.emit,
        load_plan=epart.load_plan, DualRuntime=epart.DualRuntime,
        run_reference=epart.run_reference,
        run_unpartitioned=epart.run_unpartitioned,
        tokenize=mod("dsl.lexer").tokenize,
        build_call_graph=partition.build_call_graph,
        wire_encode=runtime.wire.encode, wire_decode=runtime.wire.decode,
        SyntheticSpec=bench.SyntheticSpec,
        generate_synthetic=bench.generate_synthetic,
        generate_program=bench.generate_program,
        Annotation=mod("dsl.ast").Annotation, CONCRETE=partition.CONCRETE,
        TRUSTED=runtime.TRUSTED, UNTRUSTED=runtime.UNTRUSTED,
        version=epart.__version__)


def summary(parent: list[float], change: list[float]) -> dict:
    ratios = [c / p for p, c in zip(parent, change)]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 \
        else ratios * 3
    return {"median_ratio": statistics.median(ratios), "q1": q1, "q3": q3,
            "change_wins": sum(r < 1 for r in ratios), "pairs": len(ratios),
            "ratios": ratios, "parent_s": parent, "change_s": change}


def run_pairs(sides: dict, ops: int, pairs: int, tmp: Path) -> dict:
    """Per side and phase, the time each pair took."""
    times = {side: {ph: [] for ph in PHASES} for side in sides}
    tr = Tracer(False)
    for pair in range(-1, pairs):  # pair -1 warms both sides up, untimed
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        total = {side: dict.fromkeys(PHASES, 0.0) for side in sides}
        for idx in range(ops):
            cycles = {}
            for side in order:
                api, wl = sides[side]
                workdir = tmp / f"work_{side}"
                for unit in wl.ops[idx]:
                    gc.collect()  # untimed: start clear of the other side
                    r = run_unit(api, unit, tr, "op", workdir)
                    if r["problems"]:
                        raise SystemExit(f"{side} op {idx}: {r['problems']}")
                    for ph in PHASES[:3]:
                        total[side][ph] += r[ph]
                        total[side]["op"] += r[ph]
                    cycles.setdefault(side, []).append(
                        [r["counts"][k] for k in CYCLES])
            if cycles["parent"] != cycles["change"]:
                raise SystemExit(f"op {idx}: simulated cycles differ: {cycles}")
        if pair < 0:
            continue
        for side in sides:
            for ph in PHASES:
                times[side][ph].append(total[side][ph])
        ratio = total["change"]["op"] / total["parent"]["op"]
        print(f"pair {pair + 1}/{pairs} ({order[0]} first): op ratio "
              f"{ratio:.3f}", file=sys.stderr)
    return times


class PhaseCalls:
    """Stands in for perfbench's Tracer in run_unit: profiles each phase's
    span and adds its call count up."""

    def __init__(self):
        self.calls = dict.fromkeys(PHASES[:3], 0)

    @contextmanager
    def span(self, name: str, op: str):
        if name not in self.calls:  # a layer inside a phase, or the oracle
            yield
            return
        prof = cProfile.Profile()
        prof.enable()
        try:
            yield
        finally:
            prof.disable()
            self.calls[name] += sum(e.callcount for e in prof.getstats())


def count_calls(sides: dict, ops: int, tmp: Path) -> dict:
    """Per side and phase, the Python calls one untimed pass makes."""
    counts = {}
    for side, (api, wl) in sides.items():
        tr = PhaseCalls()
        for idx in range(ops):
            for unit in wl.ops[idx]:
                gc.collect()
                run_unit(api, unit, tr, "op", tmp / f"work_{side}")
        counts[side] = {**tr.calls, "op": sum(tr.calls.values())}
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--calls", action="store_true",
                    help="count each phase's Python calls in one more pass")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    # perfbench's own limit: a runaway input fails, not the host.
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_SPACE_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, hard))

    revs = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory(prefix="epart-ab-") as d:
        tmp = Path(d)
        sys.path.insert(0, str(tmp))
        sides = {}
        for side, package in (("parent", "epart_a"), ("change", "epart_b")):
            unpack(revs[side], tmp, package)
            (tmp / f"work_{side}").mkdir()
            api = api_for(package)
            sides[side] = (api, WORKLOADS[args.workload](api, args.seed,
                                                          SIZES["full"]))
        sources = {side: [[u.source for u in op] for op in wl.ops]
                   for side, (_, wl) in sides.items()}
        if sources["parent"] != sources["change"]:
            raise SystemExit("the two revisions generate different inputs")
        ops = len(sources["parent"])
        times = run_pairs(sides, ops, args.pairs, tmp)
        calls = count_calls(sides, ops, tmp) if args.calls else None

    result = {
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "operations_per_pair": ops,
        "parent": {"rev": args.parent, "commit": git("rev-parse", args.parent)},
        "change": {"rev": args.change, "commit": git("rev-parse", args.change)},
        "python": platform.python_version(), "machine": platform.machine(),
        "cycles_equal": True,
        "phases": {ph: summary(times["parent"][ph], times["change"][ph])
                   for ph in PHASES},
    }
    if calls is not None:
        result["calls"] = calls
    for ph, s in result["phases"].items():
        print(f"{args.workload} {ph}: change/parent {s['median_ratio']:.3f} "
              f"(quartiles {s['q1']:.3f}-{s['q3']:.3f}), change faster in "
              f"{s['change_wins']} of {s['pairs']}", file=sys.stderr)
        if calls is not None:
            a, b = calls["parent"][ph], calls["change"][ph]
            print(f"{args.workload} {ph}: Python calls {a:,} -> {b:,} "
                  f"({b / a:.3f})", file=sys.stderr)
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
