"""In-process A/B of the layout cache on perfbench's partition_wide operations.

    PYTHONDONTWRITEBYTECODE=1 python3 benchruns/pr28/instantiate_ab.py TREE OPS

TREE is an unpacked checkout of the change.  After perfbench's own set-up
(seed 41, full size), this runs OPS pairs of operations in one process,
switching Interpreter.instantiate per operation between the change's (a
class's layout kept from its first instantiation) and the parent's (kept
from its second), the first of each pair alternating.  It prints, per side,
the median of reference/partition and reference/run within each operation,
which the host's speed does not move, and the median reference time.
"""

import gc
import statistics
import sys
import tempfile
from pathlib import Path

root = Path(sys.argv[1]).resolve()
pairs = int(sys.argv[2])
sys.path.insert(0, str(root / "perfbench"))
import harness  # noqa: E402
from tracing import Tracer  # noqa: E402

workdir = Path(tempfile.mkdtemp())
api, wl, _, _ = harness.setup(root, "partition_wide", 41, "full", workdir)
from epart.runtime import interp  # noqa: E402  (the tree load_api imported)
from epart.runtime.heap import InstanceObj, ListObj  # noqa: E402

change_instantiate = interp.Interpreter.instantiate


def parent_instantiate(self, decl, args):
    layout = self.layouts.get(decl.name)
    if layout is None:
        self.layouts[decl.name] = False
        layout = interp._layout(decl)
    elif layout is False:
        layout = self.layouts[decl.name] = interp._layout(decl)
    defaults, list_fields, ctor = layout
    iso = self.isolate
    obj = InstanceObj(decl, dict(defaults))
    iso.alloc(obj)
    values = obj.values
    for name in list_fields:
        lst = ListObj()
        iso.alloc(lst)
        values[name] = lst
    if ctor is not None:
        self.call_method(decl, ctor, obj, args)
    return obj


runner = harness.Runner(api, wl, workdir)
gc.collect()
gc.freeze()  # as perfbench does after set-up
samples = {"parent": [], "change": []}
for k in range(pairs):
    order = [("parent", parent_instantiate), ("change", change_instantiate)]
    if k % 2:
        order.reverse()
    for side, fn in order:
        interp.Interpreter.instantiate = fn
        samples[side].append(runner.run_op(k % len(wl.ops), Tracer(False),
                                           probe=False))
for side, ss in samples.items():
    print(f"{side}: reference/partition "
          f"{statistics.median(s['reference'] / s['partition'] for s in ss):.4f}"
          f", reference/run "
          f"{statistics.median(s['reference'] / s['run'] for s in ss):.4f}"
          f", reference {statistics.median(s['reference'] for s in ss) * 1e3:.2f} ms"
          f" ({len(ss)} operations)")
