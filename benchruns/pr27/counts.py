"""Check the simulated cycles and pass counts of every pair record.

    python3 benchruns/pr27/counts.py SET [SET ...]

The string table changes only the bytes of the images, so in every SET the
runs of both sides must agree on the simulated cycles and on every pass
count but image_bytes, and each side's runs on image_bytes too.  Prints
image_bytes per side and any difference found.
"""

import gzip
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def records(set_dir: Path, side: str) -> list[dict]:
    return [json.load(gzip.open(p, "rt"))
            for p in sorted(set_dir.glob(f"{side}_*.json.gz"))]


def main(names: list[str]) -> int:
    status = 0
    for name in names:
        sides = {s: records(HERE / name, s) for s in ("parent", "change")}
        shared, image_bytes = set(), {}
        for side, runs in sides.items():
            image_bytes[side] = {r["pass_counts"].get("image_bytes")
                                 for r in runs}
            for r in runs:
                counts = dict(r["pass_counts"], image_bytes=None)
                shared.add(json.dumps([r["simulated_cycles"], counts],
                                      sort_keys=True))
        ok = len(shared) == 1 and all(len(v) == 1 for v in image_bytes.values())
        status |= not ok
        print(f"{name}: {len(sides['parent'])} + {len(sides['change'])} runs, "
              f"cycles and other pass counts equal: {'yes' if ok else 'NO'}; "
              f"image_bytes parent {sorted(image_bytes['parent'])} "
              f"change {sorted(image_bytes['change'])}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
