"""The golden manifest: a SHA-256 of every artifact the CLI makes of the
fixtures.

For each fixture (bank, every_node, public_field) the manifest covers the
stdout, stderr and exit code of `partition`, `inspect trusted`, `inspect
untrusted`, `run --trace transitions --metrics F --dump-fs D`,
`run-unpartitioned --trace transitions --metrics F` and `compare`, and the
plan, metrics and dumped files they write.  It also covers the CSV that
`bench --suite S --seed 0` prints for each suite S, as bench/S.csv.  The
commands run in process, in a scratch directory and with relative paths, so
no artifact names a directory of the machine.

tests/test_golden.py checks tests/golden/manifest.json against a fresh
collection.  After a deliberate change of output, regenerate it with

    PYTHONPATH=src python tests/golden_manifest.py --write

and say in CHANGES.md which artifacts moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from epart.bench import SUITES
from epart.cli import main as epart

FIXTURES = Path(__file__).parent / "fixtures"
MANIFEST = Path(__file__).parent / "golden" / "manifest.json"
NAMES = ("bank", "every_node", "public_field")

# (artifact name, argv); {name} is the fixture's name
COMMANDS = (
    ("partition", ["partition", "{name}.ep", "-o", "plan"]),
    ("inspect-trusted", ["inspect", "plan", "trusted"]),
    ("inspect-untrusted", ["inspect", "plan", "untrusted"]),
    ("run", ["run", "plan", "--trace", "transitions", "--metrics",
             "run.metrics", "--dump-fs", "fs"]),
    ("run-unpartitioned", ["run-unpartitioned", "{name}.ep", "--trace",
                           "transitions", "--metrics", "ref.metrics"]),
    ("compare", ["compare", "{name}.ep"]),
)


def _run(argv: list[str]) -> tuple[bytes, bytes, bytes]:
    """The stdout, stderr and exit code of one command, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = epart(argv)
    return (out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"),
            str(code).encode("ascii"))


def _artifacts(name: str) -> dict[str, bytes]:
    """Every artifact of one fixture, run in the current directory."""
    Path(f"{name}.ep").write_bytes((FIXTURES / f"{name}.ep").read_bytes())
    found: dict[str, bytes] = {}
    for label, command in COMMANDS:
        results = _run([a.format(name=name) for a in command])
        for stream, data in zip(("stdout", "stderr", "exit"), results):
            found[f"{label}.{stream}"] = data
    files = [p for d in ("plan", "fs") if Path(d).is_dir()
             for p in Path(d).rglob("*") if p.is_file()]
    files += [Path("run.metrics"), Path("ref.metrics")]
    for path in sorted(files):
        found[path.as_posix()] = path.read_bytes()
    return found


def collect() -> dict[str, str]:
    """Artifact name -> SHA-256 hex digest, over every fixture."""
    digests: dict[str, str] = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for name in NAMES:
                work = Path(tmp) / name
                work.mkdir()
                os.chdir(work)
                for artifact, data in _artifacts(name).items():
                    digests[f"{name}/{artifact}"] = hashlib.sha256(data).hexdigest()
        finally:
            os.chdir(cwd)
    for suite in SUITES:
        csv = _run(["bench", "--suite", suite, "--seed", "0"])[0]
        digests[f"bench/{suite}.csv"] = hashlib.sha256(csv).hexdigest()
    return digests


def changed(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """The artifacts whose digests differ, or that only one side has."""
    return sorted(k for k in expected.keys() | actual.keys()
                  if expected.get(k) != actual.get(k))


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print("usage: golden_manifest.py --write", file=sys.stderr)
        return 2
    digests = collect()
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(digests)} digests to {MANIFEST.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
