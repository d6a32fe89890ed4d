"""Command line interface.

Subcommands:

  partition         compile a source file into a plan directory
  run               execute a plan directory on the dual-isolate runtime
  run-unpartitioned run a source file entirely inside the enclave
  compare           differential-check a partitioned run against the
                    plain reference interpreter
  bench             run a benchmark suite and emit its CSV report
  inspect           describe one image of an emitted plan

Program output (transcript, CSV, inspection text) goes to stdout;
diagnostics (errors, traces) go to stderr.  Exit codes: 0 on success,
1 for missing inputs and runtime failures, 2 for source files that do
not parse or validate.
"""

import argparse
import re
import sys
from contextlib import contextmanager
from itertools import zip_longest
from pathlib import Path

from ._files import write_file
from .bench import SUITES, run_suite
from .dsl import parse_program
from .dsl.ast import Annotation
from .errors import (
    DslRuntimeError, EpartError, InterfaceMismatch, ParseError, ValidationFailed,
)
from .partition import (
    compute_images, emit, find_main, load_plan, relay_direction, whole_program_plan,
)
from .runtime import DualRuntime
from .runtime.costmodel import load_model

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2


class _Exit(Exception):
    """A command stops with one diagnostic line; main prints it on stderr
    and returns code."""

    def __init__(self, message: str, code: int = EXIT_ERROR):
        super().__init__(message)
        self.code = code


@contextmanager
def _writing():
    """Report an output file that cannot be written as an _Exit."""
    try:
        yield
    except OSError as e:
        raise _Exit(f"cannot write {e.filename}: {e.strerror}") from None


def _parse_source(path: str):
    """The parsed program at path.

    A source that is not UTF-8 text does not parse.  Validation is left to
    the plan builders (compute_images, whole_program_plan): their
    ValidationFailed is reported by main.
    """
    p = Path(path)
    if not p.is_file():
        raise _Exit(f"source file not found: {path}")
    try:
        return parse_program(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        message = f"{path}: not UTF-8 text ({e.reason} at byte {e.start})"
    except ParseError as e:
        message = str(e)
    except OSError as e:
        raise _Exit(f"cannot read {path}: {e.strerror}") from None
    raise _Exit(f"parse error: {message}", EXIT_INVALID)


def _load_model_arg(path: str | None):
    if path is None:
        return None
    if not Path(path).is_file():
        raise _Exit(f"model file not found: {path}")
    try:
        return load_model(path)
    except (EpartError, ValueError) as e:
        raise _Exit(f"bad cost model: {e}") from None


def _load_plan_arg(plan_dir: str):
    try:
        return load_plan(plan_dir)
    except FileNotFoundError as e:
        raise _Exit(str(e)) from None
    except OSError as e:
        raise _Exit(f"cannot read {e.filename}: {e.strerror}") from None
    except EpartError as e:
        raise _Exit(f"bad plan: {e}") from None


def _dump_fs(vfs: dict[str, str], out_dir: str) -> None:
    """Write each VFS file under out_dir; writes none when a path has a
    `..` component, which could land it outside out_dir."""
    paths = sorted(vfs)
    for path in paths:
        if ".." in path.split("/"):
            raise _Exit(f"cannot dump {path}: the path leaves {out_dir}")
    root = Path(out_dir)
    for path in paths:
        target = root / path.lstrip("/")
        target.parent.mkdir(parents=True, exist_ok=True)
        write_file(target, vfs[path].encode("utf-8"))


def _run_to_fault(rt: DualRuntime, argv: list[str]):
    """Run main to completion or to its first fault.

    Returns the run record (partial after a fault) and the fault's
    diagnostic text, or None when the run completed.
    """
    try:
        return rt.run_main(argv), None
    except DslRuntimeError as e:
        return rt.result(), e.formatted()
    except EpartError as e:
        return rt.result(), str(e)


def _run(plan, model, args, gc_scan_every: int = 1) -> int:
    """Run plan's main on args.args, then print and write the run's
    outputs; the exit code of run and run-unpartitioned."""
    rt = DualRuntime(plan, model=model, gc_scan_every=gc_scan_every,
                     trace=args.trace == "transitions")
    result, fault = _run_to_fault(rt, args.args)
    for line in result.transcript:
        print(line)
    if args.trace == "transitions":
        for ev in result.trace:
            print(ev.line(), file=sys.stderr)
    if fault is not None:
        print(fault, file=sys.stderr)
    with _writing():
        if args.metrics:
            write_file(args.metrics, result.metrics_text().encode("utf-8"))
        if args.dump_fs:
            _dump_fs(result.vfs, args.dump_fs)
    return EXIT_OK if fault is None else EXIT_ERROR


# ---------------------------------------------------------------------------
# subcommands

def cmd_partition(args) -> int:
    plan = compute_images(_parse_source(args.source))
    with _writing():
        files = emit(plan, args.out)
    names = {ann: [] for ann in Annotation}
    for cname, ann in plan.annotations.items():
        names[ann].append(cname)
    for ann, label in ((Annotation.TRUSTED, "trusted"),
                       (Annotation.UNTRUSTED, "untrusted"),
                       (Annotation.NEUTRAL, "neutral")):
        listed = ", ".join(names[ann]) if names[ann] else "-"
        print(f"{label:9} {len(names[ann]):3} classes: {listed}")
    print(f"wrote {', '.join(f.name for f in files)} to {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    plan = _load_plan_arg(args.plan_dir)
    model = _load_model_arg(args.model)
    m = re.fullmatch(r"every-k=(\d+)", args.gc_scan)
    if not m or int(m.group(1)) < 1:
        raise _Exit(f"bad --gc-scan value {args.gc_scan!r}, "
                    "expected every-k=<positive int>")
    return _run(plan, model, args, int(m.group(1)))


def cmd_run_unpartitioned(args) -> int:
    plan = whole_program_plan(_parse_source(args.source), enclave=True)
    return _run(plan, _load_model_arg(args.model), args)


def cmd_compare(args) -> int:
    program = _parse_source(args.source)
    reference_plan = whole_program_plan(program, enclave=False)
    model = _load_model_arg(args.model)
    plan = _load_plan_arg(args.plan) if args.plan else compute_images(program)
    # A fault is observable behaviour: both runs must stop with the same
    # diagnostic after writing the same transcript and files.
    reference, ref_fault = _run_to_fault(
        DualRuntime(reference_plan, model=model), args.args)
    partitioned, part_fault = _run_to_fault(DualRuntime(plan, model=model),
                                            args.args)
    ref_fault, part_fault = _first_line(ref_fault), _first_line(part_fault)
    if ref_fault != part_fault:
        print(f"FAIL: reference {_outcome(ref_fault)}, "
              f"partitioned {_outcome(part_fault)}")
        return EXIT_ERROR
    for i, (a, b) in enumerate(zip_longest(reference.transcript,
                                           partitioned.transcript)):
        if a != b:
            print(f"FAIL: transcript line {i}: reference {a!r}, "
                  f"partitioned {b!r}")
            return EXIT_ERROR
    for path in sorted(set(reference.vfs) | set(partitioned.vfs)):
        a = reference.vfs.get(path)
        b = partitioned.vfs.get(path)
        if a != b:
            print(f"FAIL: file {path}: reference {_clip(a)!r}, "
                  f"partitioned {_clip(b)!r}")
            return EXIT_ERROR
    print(f"PASS: {len(reference.transcript)} transcript line(s) and "
          f"{len(reference.vfs)} file(s) match")
    if ref_fault is not None:
        print(f"both runs stop with: {ref_fault}")
    print(f"ecalls={partitioned.total('ecalls')} "
          f"ocalls={partitioned.total('ocalls')} "
          f"shim_ocalls={partitioned.shim_ocalls}")
    return EXIT_OK


def _first_line(fault: str | None) -> str | None:
    return None if fault is None else fault.splitlines()[0]


def _outcome(fault: str | None) -> str:
    return "completed" if fault is None else f"stopped with {fault!r}"


def _clip(s: str | None, limit: int = 32) -> str | None:
    if s is not None and len(s) > limit:
        return s[:limit] + "..."
    return s


def cmd_bench(args) -> int:
    report = run_suite(args.suite, model=_load_model_arg(args.model),
                       seed=args.seed)
    if args.out:
        with _writing():
            report.write(args.out)
        print(f"wrote {args.suite} report to {args.out}")
    else:
        print(report.to_csv(), end="")
    return EXIT_OK


def cmd_inspect(args) -> int:
    plan = _load_plan_arg(args.plan_dir)
    side = Annotation.TRUSTED if args.image == "trusted" else Annotation.UNTRUSTED
    image = plan.image(side)
    print(f"image: {args.image}")
    print(f"classes ({len(image.classes)}):")
    for c in image.classes:
        print(f"  {c.name} [{c.annotation.name.lower()}]")
    print(f"proxies ({len(image.proxies)}):")
    for p in image.proxies:
        print(f"  {p.name} ({relay_direction(p.annotation)} proxy, hash field, "
              f"{len(p.methods)} stub(s))")
        for s in p.methods:
            params = ", ".join(str(param.type) for param in s.params)
            ret = "" if str(s.return_type) == "Unit" else f" -> {s.return_type}"
            print(f"    {s.name}({params}){ret}")
    opposite = Annotation.UNTRUSTED if side == Annotation.TRUSTED \
        else Annotation.TRUSTED
    proxied = {p.name for p in image.proxies}
    for cname, ann in plan.annotations.items():
        if ann == opposite and cname not in proxied:
            print(f"{cname} proxy: pruned (unreachable)")
    try:
        entry_points = ["main"] if find_main(plan)[0] is image else []
    except InterfaceMismatch:  # a plan without main is still described
        entry_points = []
    entry_points += sorted(r.relay_id for r in image.relays)
    print(f"entry points ({len(entry_points)}):")
    for e in entry_points:
        print(f"  {e}")
    descriptor = plan.descriptor
    print(f"interface descriptor ({len(descriptor)} records):")
    for rec in descriptor:
        print(f"  {rec.render()}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="epart",
        description="Annotation-driven program partitioner and "
                    "enclave runtime simulator.")
    sub = ap.add_subparsers(dest="command", required=True)
    # The options run and run-unpartitioned share.  A parent's positionals
    # would come before the command's own, so `args` stays with each command.
    run_options = argparse.ArgumentParser(add_help=False)
    run_options.add_argument("--model",
                             help="cost model file (key = value lines)")
    run_options.add_argument("--trace", choices=["transitions"],
                             help="log every boundary transition to stderr")
    run_options.add_argument("--dump-fs", metavar="DIR",
                             help="write the final virtual filesystem under DIR")
    run_options.add_argument("--metrics", metavar="FILE",
                             help="write per-isolate metric counters to FILE")

    p = sub.add_parser("partition", help="compile source into a plan directory")
    p.add_argument("source")
    p.add_argument("-o", "--out", required=True,
                   help="directory for trusted.img, untrusted.img, "
                        "interface.edl.txt")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("run", parents=[run_options],
                       help="run an emitted plan")
    p.add_argument("plan_dir")
    p.add_argument("args", nargs="*", help="argv for the program's main")
    p.add_argument("--deterministic-gc", "--live-gc", action="store_true",
                   help="collect at allocation-threshold safepoints, the "
                        "default; --live-gc is kept for existing command lines")
    p.add_argument("--gc-scan", default="every-k=1", metavar="every-k=N",
                   help="scan for dead proxies every N collections")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("run-unpartitioned", parents=[run_options],
                       help="run a source file entirely inside the enclave")
    p.add_argument("source")
    p.add_argument("args", nargs="*")
    p.set_defaults(fn=cmd_run_unpartitioned)

    p = sub.add_parser("compare",
                       help="check a partitioned run against the reference")
    p.add_argument("source")
    p.add_argument("args", nargs="*")
    p.add_argument("--plan", help="use this plan directory instead of "
                                  "partitioning the source in memory")
    p.add_argument("--model")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("bench", help="run a benchmark suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model")
    p.add_argument("--out", help="write the CSV report to this file")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("inspect", help="describe one image of a plan")
    p.add_argument("plan_dir")
    p.add_argument("image", choices=["trusted", "untrusted"])
    p.set_defaults(fn=cmd_inspect)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationFailed as e:
        for v in e.report.violations:
            print(v, file=sys.stderr)
        print(f"{len(e.report.violations)} validation violation(s)",
              file=sys.stderr)
        return EXIT_INVALID
    except _Exit as e:
        print(e, file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
