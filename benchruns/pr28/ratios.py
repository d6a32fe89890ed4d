"""Within-operation phase ratios of perfbench records.

    python3 benchruns/pr28/ratios.py RECORD [RECORD ...]

For each record (a perfbench/run.py JSON, gzipped or not) this prints the
median over its operations of reference/partition and reference/run.  Both
phases of a ratio ran in the same operation, so the host's speed at the
time cancels out.
"""

import gzip
import json
import statistics
import sys

for path in sys.argv[1:]:
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt") as f:
        ops = json.load(f)["operations"]
    print(f"{path}: reference/partition "
          f"{statistics.median(o['reference'] / o['partition'] for o in ops):.4f}"
          f", reference/run "
          f"{statistics.median(o['reference'] / o['run'] for o in ops):.4f}"
          f" ({len(ops)} operations)")
