"""List the lines of src/epart that no test in tests/ runs.

    python3 tools/unreached.py [--root DIR] [--list]

Runs the tests/ suite in this process under a stdlib line tracer
(sys.settrace), which records only frames whose code lives under
DIR/src/epart, then compares the lines it saw with every line that
compiles to code in those files.  It prints the unreached-line count per
file, most first, and the total; --list also prints each unreached line.
DIR defaults to the checkout this script sits in, so the same script can
count another checkout.  coverage.py is not needed.  Each file's source
is read, and its lines compiled, before the suite starts, so the count and
--list describe the files as they were then, even if one is edited while
the suite runs; the suite itself imports them a moment later.

The tracer makes the suite about four times slower, so this is a tool to
run by hand, not part of the test suite.  Code that tests run in a child
process (the few subprocess CLI checks) is not seen.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def executable_lines(path: Path, source: str) -> set[int]:
    """Every line number some code object compiled from path's source maps
    to."""
    lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace_suite(root: Path) -> tuple[int, set]:
    """Run the suite under the tracer: (pytest's exit code, hits)."""
    prefix = str(root / "src" / "epart") + os.sep
    hits: set[tuple[str, int]] = set()
    add = hits.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    src = str(root / "src")
    sys.path.insert(0, src)
    # for the tests that run the CLI in a child process
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    os.chdir(root)
    import pytest

    sys.settrace(tracer)
    try:
        code = pytest.main([str(root / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    return int(code), hits


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout to trace (default: this one)")
    ap.add_argument("--list", action="store_true",
                    help="print every unreached line")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted((root / "src" / "epart").rglob("*.py"))}
    lines = {path: executable_lines(path, text)
             for path, text in sources.items()}
    code, hits = trace_suite(root)

    per_file = []
    for path, executable in lines.items():
        seen = {line for name, line in hits if name == str(path)}
        missed = sorted(executable - seen)
        if missed:
            per_file.append((path, missed))
    per_file.sort(key=lambda item: -len(item[1]))
    print()
    for path, missed in per_file:
        print(f"{len(missed):5d}  {path.relative_to(root)}")
    print(f"{sum(len(m) for _, m in per_file):5d}  unreached lines in total "
          f"(pytest exit code {code})")
    if args.list:
        for path, missed in per_file:
            source = sources[path].splitlines()
            for line in missed:
                print(f"{path.relative_to(root)}:{line}: {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
