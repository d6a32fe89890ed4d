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
from itertools import zip_longest
from pathlib import Path

from .bench import SUITES, run_suite
from .dsl import parse_program, validate
from .dsl.ast import Annotation
from .errors import DslRuntimeError, EpartError, ParseError
from .partition import compute_images, emit, load_plan, whole_program_plan
from .runtime import DualRuntime
from .runtime.costmodel import load_model

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_ERROR


def _read_source(path: str) -> str | None:
    p = Path(path)
    if not p.is_file():
        return None
    return p.read_text(encoding="utf-8")


def _parse_and_validate(source: str):
    """Returns (program, exit_code); program is None when rejected."""
    try:
        program = parse_program(source)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return None, EXIT_INVALID
    report = validate(program)
    if not report.ok:
        for v in report.violations:
            print(v, file=sys.stderr)
        print(f"{len(report.violations)} validation violation(s)",
              file=sys.stderr)
        return None, EXIT_INVALID
    return program, EXIT_OK


def _load_model_arg(path: str | None):
    if path is None:
        return None, EXIT_OK
    if not Path(path).is_file():
        return None, _fail(f"model file not found: {path}")
    try:
        return load_model(path), EXIT_OK
    except (EpartError, ValueError) as e:
        return None, _fail(f"bad cost model: {e}")


def _dump_fs(vfs: dict[str, str], out_dir: str) -> None:
    root = Path(out_dir)
    for path in sorted(vfs):
        target = root / path.lstrip("/")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(vfs[path], encoding="utf-8")


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


def _emit_run_outputs(result, args) -> None:
    for line in result.transcript:
        print(line)
    if getattr(args, "trace", None) == "transitions":
        for ev in result.trace:
            print(ev.line(), file=sys.stderr)
    if getattr(args, "metrics", None):
        Path(args.metrics).write_text(result.metrics_text(), encoding="utf-8")
    if getattr(args, "dump_fs", None):
        _dump_fs(result.vfs, args.dump_fs)


# ---------------------------------------------------------------------------
# subcommands

def cmd_partition(args) -> int:
    source = _read_source(args.source)
    if source is None:
        return _fail(f"source file not found: {args.source}")
    program, code = _parse_and_validate(source)
    if program is None:
        return code
    plan = compute_images(program)
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


def _load_plan_arg(plan_dir: str):
    try:
        return load_plan(plan_dir), EXIT_OK
    except FileNotFoundError as e:
        return None, _fail(str(e))
    except EpartError as e:
        return None, _fail(f"bad plan: {e}")


def cmd_run(args) -> int:
    plan, code = _load_plan_arg(args.plan_dir)
    if plan is None:
        return code
    model, code = _load_model_arg(args.model)
    if code:
        return code
    m = re.fullmatch(r"every-k=(\d+)", args.gc_scan)
    if not m or int(m.group(1)) < 1:
        return _fail(f"bad --gc-scan value {args.gc_scan!r}, "
                     "expected every-k=<positive int>")
    rt = DualRuntime(plan, model=model, gc_scan_every=int(m.group(1)))
    result, fault = _run_to_fault(rt, args.args)
    _emit_run_outputs(result, args)
    if fault is not None:
        return _fail(fault)
    return EXIT_OK


def cmd_run_unpartitioned(args) -> int:
    source = _read_source(args.source)
    if source is None:
        return _fail(f"source file not found: {args.source}")
    program, code = _parse_and_validate(source)
    if program is None:
        return code
    model, code = _load_model_arg(args.model)
    if code:
        return code
    rt = DualRuntime(whole_program_plan(program, enclave=True), model=model)
    result, fault = _run_to_fault(rt, args.args)
    _emit_run_outputs(result, args)
    if fault is not None:
        return _fail(fault)
    return EXIT_OK


def cmd_compare(args) -> int:
    source = _read_source(args.source)
    if source is None:
        return _fail(f"source file not found: {args.source}")
    program, code = _parse_and_validate(source)
    if program is None:
        return code
    model, code = _load_model_arg(args.model)
    if code:
        return code
    if args.plan:
        plan, code = _load_plan_arg(args.plan)
        if plan is None:
            return code
    else:
        plan = compute_images(program)
    # A fault is observable behaviour: both runs must stop with the same
    # diagnostic after writing the same transcript and files.
    reference, ref_fault = _run_to_fault(
        DualRuntime(whole_program_plan(program, enclave=False), model=model),
        args.args)
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
    model, code = _load_model_arg(args.model)
    if code:
        return code
    report = run_suite(args.suite, model=model, seed=args.seed)
    if args.out:
        report.write(args.out)
        print(f"wrote {args.suite} report to {args.out}")
    else:
        print(report.to_csv(), end="")
    return EXIT_OK


def cmd_inspect(args) -> int:
    plan, code = _load_plan_arg(args.plan_dir)
    if plan is None:
        return code
    side = Annotation.TRUSTED if args.image == "trusted" else Annotation.UNTRUSTED
    image = plan.image(side)
    print(f"image: {args.image}")
    print(f"classes ({len(image.classes)}):")
    for c in image.classes:
        print(f"  {c.name} [{c.annotation.name.lower()}]")
    print(f"proxies ({len(image.proxies)}):")
    for p in image.proxies:
        print(f"  {p.class_name} ({p.direction} proxy, hash field, "
              f"{len(p.stubs)} stub(s))")
        for s in p.stubs:
            params = ", ".join(str(t) for _, t in s.params)
            ret = "" if str(s.return_type) == "Unit" else f" -> {s.return_type}"
            print(f"    {s.name}({params}){ret}")
    opposite = Annotation.UNTRUSTED if side == Annotation.TRUSTED \
        else Annotation.TRUSTED
    for cname, ann in plan.annotations.items():
        if ann == opposite and image.proxy_def(cname) is None:
            print(f"{cname} proxy: pruned (unreachable)")
    print(f"entry points ({len(image.entry_points)}):")
    for e in image.entry_points:
        print(f"  {e}")
    print(f"interface descriptor ({len(plan.descriptor.records)} records):")
    for rec in plan.descriptor.records:
        print(f"  {rec.render()}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="epart",
        description="Annotation-driven program partitioner and "
                    "enclave runtime simulator.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="compile source into a plan directory")
    p.add_argument("source")
    p.add_argument("-o", "--out", required=True,
                   help="directory for trusted.img, untrusted.img, "
                        "interface.edl.txt")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("run", help="run an emitted plan")
    p.add_argument("plan_dir")
    p.add_argument("args", nargs="*", help="argv for the program's main")
    p.add_argument("--model", help="cost model file (key = value lines)")
    p.add_argument("--trace", choices=["transitions"],
                   help="log every boundary transition to stderr")
    gc = p.add_mutually_exclusive_group()
    gc.add_argument("--deterministic-gc", action="store_true", default=True,
                    help="collect at allocation-threshold safepoints (default)")
    gc.add_argument("--live-gc", action="store_true", default=False,
                    help="alias of --deterministic-gc, kept for existing "
                         "command lines")
    p.add_argument("--gc-scan", default="every-k=1", metavar="every-k=N",
                   help="scan for dead proxies every N collections")
    p.add_argument("--dump-fs", metavar="DIR",
                   help="write the final virtual filesystem under DIR")
    p.add_argument("--metrics", metavar="FILE",
                   help="write per-isolate metric counters to FILE")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("run-unpartitioned",
                       help="run a source file entirely inside the enclave")
    p.add_argument("source")
    p.add_argument("args", nargs="*")
    p.add_argument("--model")
    p.add_argument("--trace", choices=["transitions"])
    p.add_argument("--dump-fs", metavar="DIR")
    p.add_argument("--metrics", metavar="FILE")
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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
