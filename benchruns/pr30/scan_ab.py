"""Time lexer.scan against the scan it replaced, in one process.

    PYTHONPATH=src python3 benchruns/pr30/scan_ab.py [SEED]

Builds the full-size partition_wide and corpus_diff inputs of perfbench at
SEED (default 41), checks that both scans give the same lists on every
source, then times each scan over all sources in 11 interleaved rounds
(the side that runs first alternates) and prints the best round per
operation.  tests/lexer_reference.py holds the earlier scan.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from epart.dsl.lexer import scan  # noqa: E402
from harness import load_api  # noqa: E402
from lexer_reference import scan as reference_scan  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def main(seed: int) -> None:
    api = load_api(ROOT / "src")
    for name in ("partition_wide", "corpus_diff"):
        wl = WORKLOADS[name](api, seed, SIZES["full"])
        sources = [u.source for op in wl.ops for u in op]
        assert all(scan(s) == reference_scan(s) for s in sources)
        sides = [("reference", reference_scan), ("scan", scan)]
        best = dict.fromkeys(dict(sides), float("inf"))
        for r in range(11):
            for side, f in sides if r % 2 else sides[::-1]:
                t = time.perf_counter()
                for s in sources:
                    f(s)
                best[side] = min(best[side], time.perf_counter() - t)
        per_op = {side: f"{t * 1000 / len(wl.ops):.2f} ms" for side, t in best.items()}
        print(f"{name} seed {seed}, {len(sources)} sources: {per_op} per operation")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 41)
