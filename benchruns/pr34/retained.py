"""What one partition_wide operation's runtime retains, per tree.

    python3 benchruns/pr34/retained.py TREE

TREE is an unpacked checkout (git archive REV | tar -x); its perfbench and
src are used.

Builds every unit of partition_wide's seed-41 full-size operations, loads
each plan as perfbench does, then under tracemalloc measures the bytes a
DualRuntime holds after __init__ and after run_main (the runtime kept
alive, cyclic GC collected), plus the peak during both, summed over all
units of one operation, and the top allocation sites of the retained
runtime after __init__.
"""
import gc, sys, tempfile, tracemalloc
from pathlib import Path
tree = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(tree / "perfbench"))
from harness import load_api
from workloads import SIZES, WORKLOADS
api = load_api(tree / "src")
wl = WORKLOADS["partition_wide"](api, 41, SIZES["full"])
rows = []
for i, op in enumerate(wl.ops):
    init = run = peak = 0
    for unit in op:
        with tempfile.TemporaryDirectory() as tmp:
            api.emit(api.compute_images(api.parse_program(unit.source)), Path(tmp))
            plan = api.load_plan(Path(tmp))
        gc.collect()
        tracemalloc.start(25)
        base = tracemalloc.get_traced_memory()[0]
        rt = api.DualRuntime(plan)
        gc.collect()
        a = tracemalloc.get_traced_memory()[0] - base
        if i == 0 and unit is op[0]:
            snap = tracemalloc.take_snapshot()
        rt.run_main()
        gc.collect()
        cur, pk = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        init += a; run += cur - base; peak += pk - base
        del rt
    rows.append((i, len(op), init, run, peak))
print(f"tree {tree.name}: op units init_bytes run_bytes peak_bytes")
for r in rows:
    print(*r)
print("median per op: init", sorted(r[2] for r in rows)[len(rows)//2],
      "run", sorted(r[3] for r in rows)[len(rows)//2],
      "peak", sorted(r[4] for r in rows)[len(rows)//2])
stats = snap.statistics("filename")
print("op 0 unit 0, retained after __init__ by file:")
for s in stats[:8]:
    print(f"  {s.size:>9} B {s.count:>6} blocks {s.traceback[0].filename.split('/src/')[-1]}")
