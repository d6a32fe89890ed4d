"""Time four ways of overwriting a small file that already holds data.

    python3 benchruns/pr13/write_strategies.py [--dir DIR] [--seed N]

Each strategy gets its own 50 files in a fresh directory under DIR (default:
the current directory, so the files sit on the filesystem under test).  In
each of 8 rounds every file is overwritten with a new random payload of 2-6
KB, so every timed write replaces data.  The strategies take turns within a
round, in an order that rotates from round to round.  Prints the median and
95th percentile of the 400 writes per strategy, in milliseconds.

  O_TRUNC         open(O_WRONLY|O_CREAT|O_TRUNC), write, close: what
                  Path.write_bytes does
  in place        epart._files.write_file: open without O_TRUNC, write,
                  cut to length
  unlink+create   unlink, then open(O_WRONLY|O_CREAT|O_EXCL), write, close
  temp+replace    write a temporary file beside the target, os.replace
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from epart._files import write_file  # noqa: E402

FILES = 50
ROUNDS = 8


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def o_trunc(path: str, data: bytes) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        _write_all(fd, data)
    finally:
        os.close(fd)


def unlink_create(path: str, data: bytes) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        _write_all(fd, data)
    finally:
        os.close(fd)


def temp_replace(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    o_trunc(tmp, data)
    os.replace(tmp, path)


STRATEGIES = {"O_TRUNC": o_trunc, "in place": write_file,
              "unlink+create": unlink_create, "temp+replace": temp_replace}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", default=".")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    root = tempfile.mkdtemp(prefix="write_strategies.", dir=args.dir)
    try:
        dirs = {}
        for i, name in enumerate(STRATEGIES):
            dirs[name] = os.path.join(root, str(i))
            os.mkdir(dirs[name])
        samples = {name: [] for name in STRATEGIES}
        # Round 0 creates the files; it is not timed.
        for r in range(ROUNDS + 1):
            payloads = [rng.randbytes(rng.randrange(2048, 6145))
                        for _ in range(FILES)]
            names = list(STRATEGIES)
            names = names[r % len(names):] + names[:r % len(names)]
            for name in names:
                write = STRATEGIES[name]
                for i, data in enumerate(payloads):
                    path = os.path.join(dirs[name], f"f{i}")
                    t0 = perf_counter()
                    write(path, data)
                    dt = perf_counter() - t0
                    if r:
                        samples[name].append(dt)
        for name, times in samples.items():
            p95 = statistics.quantiles(times, n=20)[-1]
            print(f"{name:14} median {statistics.median(times) * 1e3:.4f} ms  "
                  f"p95 {p95 * 1e3:.4f} ms  (n={len(times)})")
    finally:
        shutil.rmtree(root)


if __name__ == "__main__":
    main()
