"""Time compute_images alone, in one process, for two revisions.

    python3 benchruns/pr35/compute_images_ab.py PARENT CHANGE [--rounds N]

Each revision's src/epart is unpacked as its own package, as tools/ab.py
does.  The inputs are the six seed-41 full-size partition_wide programs
and bench.progen's programs for seeds 0-299.  Each side parses its own
copies and validates them first, so the checker's walk is cached on each
Program and the timed call is the partition walk, the image build and
derive_interface.  A round times every program once on each side, with
the cyclic GC off, the side that runs first alternating.  The JSON on
stdout holds, per input set, each round's seconds and ratio, the median
ratio and its quartiles and the rounds the change won.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))
import ab  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--rounds", type=int, default=15)
    args = ap.parse_args()
    result = {"parent": ab.git("rev-parse", args.parent),
              "change": ab.git("rev-parse", args.change),
              "rounds": args.rounds}
    with tempfile.TemporaryDirectory(prefix="epart-ci-") as d:
        sys.path.insert(0, d)
        sets = {}
        for side, package in (("parent", "epart_a"), ("change", "epart_b")):
            ab.unpack(getattr(args, side), Path(d), package)
            api = ab.api_for(package)
            wide = [u.source for op in WORKLOADS["partition_wide"](
                api, 41, SIZES["full"]).ops for u in op]
            progen = [api.generate_program(s) for s in range(300)]
            for name, sources in (("partition_wide", wide), ("progen", progen)):
                programs = [api.parse_program(s) for s in sources]
                for p in programs:
                    assert api.validate(p).ok
                sets.setdefault(name, {})[side] = (api.compute_images, programs)
        for name, sides in sets.items():
            times = {side: [] for side in sides}
            for r in range(args.rounds):
                order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
                for side in order:
                    compute, programs = sides[side]
                    gc.collect()
                    gc.disable()
                    t0 = time.perf_counter()
                    for p in programs:
                        compute(p)
                    times[side].append(time.perf_counter() - t0)
                    gc.enable()
            ratios = [c / p for p, c in zip(times["parent"], times["change"])]
            q1, median, q3 = statistics.quantiles(ratios, n=4)
            result[name] = {
                "programs": len(sides["parent"][1]),
                "median_ratio": statistics.median(ratios), "q1": q1, "q3": q3,
                "change_wins": sum(x < 1 for x in ratios), "ratios": ratios,
                "parent_s": times["parent"], "change_s": times["change"]}
            print(f"{name}: compute_images change/parent "
                  f"{result[name]['median_ratio']:.3f} (quartiles {q1:.3f}-"
                  f"{q3:.3f}), change faster in {result[name]['change_wins']} "
                  f"of {args.rounds}", file=sys.stderr)
    sys.stdout.write(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
