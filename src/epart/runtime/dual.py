"""Two-isolate execution of a partition plan.

Each side is one Isolate, which holds its image's classes and its heap
and evaluates on them.  The unpartitioned baselines are plans too (see
whole_program_plan): every class in the trusted image with the untrusted
isolate only serving host shims, or every class in the untrusted image
with no trusted isolate at all.  Every boundary crossing is a call of one
relay through DualRuntime.cross: constructor and instance-method relays of
annotated classes, the host shims __host__.print, __host__.file_write and
__host__.file_read, and <Class>.release for a mirror whose proxy was
swept.  The caller pays the ecall/ocall cost, arguments are billed at the
length of their canonical wire encoding, and serialization is charged to
whichever side sends them.  Transition framing (context and hash words)
rides for free; unit responses carry no payload at all.  A runtime built
with trace=True also keeps one TraceEvent per crossing; without it a
crossing does only the work it bills.

Each relay an image serves is bound once, when the runtime is built: a
constructor relay to the class it builds, an instance relay to its class
and the method ast.method_table names.  remote_new and remote_invoke find
the relay and that binding in one lookup (_relay) and hand the binding to
the relay's body, so a crossing looks up no class or method.

A crossing builds no bytes.  wire.measure walks the arguments for the
length of their encoding before the transition is billed, so a value that
cannot cross fails first; wire.land builds the target's heap objects from
the caller's values, after the mirror check, as decoding that encoding
would; the result goes back the same way.  wire.py defines the format;
the isolates keep the landing policy the walks call back into.

Object identity across the boundary is a 64-bit hash minted by an
object's home isolate at first exposure (Isolate.home_hash).  The home
side keeps the hash to mirror pairing in its registry (a strong GC root);
the other side tracks its proxies weakly so a collection can report
unreferenced hashes back, letting the home side drop the mirror.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from ..dsl import ast
from ..errors import (
    DslRuntimeError, InterfaceMismatch, StaleMirror, TransitionOverflow,
)
from ..partition.model import MarshalKind, RelayMethodDef
from ..partition.plan import PartitionPlan, find_main, whole_program_plan
from . import wire
from .costmodel import CostModel
from .heap import (
    TRUSTED, UNTRUSTED, GcStats, HeapObject, InstanceObj, ListObj,
    MetricCounters, ProxyObj,
)
from .interp import Isolate, ensure_recursion_headroom

MAX_TRANSITION_DEPTH = 256
DEFAULT_GC_THRESHOLD = 64 * 1024

_SIDE_NAME = {ast.Annotation.TRUSTED: TRUSTED, ast.Annotation.UNTRUSTED: UNTRUSTED}
_FAR_SIDE = {TRUSTED: UNTRUSTED, UNTRUSTED: TRUSTED}
_SER, _UNIT = MarshalKind.SER, MarshalKind.UNIT


@dataclass
class TraceEvent:
    seq: int
    direction: str   # ecall | ocall
    kind: str        # ctor | invoke | shim | remove
    qualname: str
    hash_value: int
    nbytes: int
    cycles: int

    def line(self) -> str:
        return (f"{self.seq} {self.direction.upper()} {self.kind} "
                f"{self.qualname} hash=0x{self.hash_value:016x} "
                f"bytes={self.nbytes} cycles={self.cycles}")


@dataclass
class ExecutionResult:
    transcript: list[str] = field(default_factory=list)
    vfs: dict[str, str] = field(default_factory=dict)
    metrics: dict[str, MetricCounters] = field(default_factory=dict)
    trace: list[TraceEvent] = field(default_factory=list)
    shim_ocalls: int = 0
    remove_calls: int = 0
    cycles_by_source: dict[str, dict[str, int]] = field(default_factory=dict)

    def total(self, name: str) -> int:
        return sum(getattr(m, name) for m in self.metrics.values())

    @property
    def total_cycles(self) -> int:
        return self.total("simulated_cycles")

    def metrics_text(self) -> str:
        lines: list[str] = []
        for side in sorted(self.metrics):
            lines.append(f"[{side}]")
            lines.extend(self.metrics[side].as_lines())
            lines.append("")
        lines.append("[run]")
        lines.append(f"shim_ocalls = {self.shim_ocalls}")
        lines.append(f"remove_calls = {self.remove_calls}")
        lines.append(f"total_simulated_cycles = {self.total_cycles}")
        return "\n".join(lines) + "\n"


class DualRuntime:
    """Loads a plan's images and executes them against each other."""

    def __init__(self, plan: PartitionPlan, model: CostModel | None = None,
                 gc_scan_every: int = 1,
                 gc_threshold: int = DEFAULT_GC_THRESHOLD, trace: bool = False):
        if gc_scan_every < 1:
            raise ValueError("gc_scan_every must be at least 1")
        ensure_recursion_headroom()
        self.plan = plan
        self.model = model if model is not None else CostModel()
        self.gc_scan_every = gc_scan_every
        self.gc_threshold = gc_threshold

        self.isolates: dict[str, Isolate] = {}
        # image side -> (class, method) -> a relay that image serves and what
        # serving it runs: the class a constructor builds, or an instance
        # method's class and the method ast.method_table names.  A side
        # without an image serves none.
        self.relays: dict[str, dict[tuple[str, str], tuple]] = {
            side: {} for side in _SIDE_NAME.values()}
        # Isolates reach the runtime through a weak proxy, so a dropped
        # runtime and its heaps are freed at once, not by the cyclic GC.
        context = weakref.proxy(self)
        for annotation, side in _SIDE_NAME.items():
            image = plan.image(annotation)
            if image is None:
                continue
            iso = self.isolates[side] = Isolate(side, image.classes, context)
            served = self.relays[side]
            for r in image.relays:  # each made from a method of this image
                decl = iso.classes[r.class_name]
                method = iso.methods[r.class_name, r.method_name]
                served[r.class_name, r.method_name] = (
                    r, decl if method.is_constructor else (decl, method))
        # side -> the isolate its crossings land on
        isolates = self.isolates
        self.peers = {TRUSTED: isolates[UNTRUSTED],
                      UNTRUSTED: isolates[TRUSTED]} if len(isolates) == 2 else {}
        # (class, direction) -> <Class>.release, built on first use
        self.release_relays: dict[tuple[str, str], RelayMethodDef] = {}

        self.transcript: list[str] = []
        self.vfs: dict[str, str] = {}
        self.traced = trace
        self.trace: list[TraceEvent] = []  # stays empty unless traced
        self.depth = 0
        self.shim_ocalls = 0
        self.remove_calls = 0

    # -- program entry -------------------------------------------------------

    def run_main(self, argv: list[str] | None = None) -> ExecutionResult:
        image, cls, m = find_main(self.plan)
        side = _SIDE_NAME[image.side]
        args: list = []
        if m.params:
            lst = ListObj([str(a) for a in (argv or [])])
            self.isolates[side].alloc(lst, charged=False)
            args = [lst]
        self.isolates[side].call_method(cls, m, None, args)
        return self.result()

    def result(self) -> ExecutionResult:
        priced = {side: iso.cycles_by_source for side, iso in self.isolates.items()}
        return ExecutionResult(
            transcript=list(self.transcript),
            vfs=dict(self.vfs),
            metrics={s: self.isolates[s].counters(c) for s, c in priced.items()},
            trace=list(self.trace),
            shim_ocalls=self.shim_ocalls,
            remove_calls=self.remove_calls,
            cycles_by_source=priced,
        )

    # -- python-level api (used by benchmarks and tests) ----------------------

    def construct(self, side: str, class_name: str, args: list, pin: bool = True):
        """Build an instance as code on `side` would: local or via proxy."""
        obj = self.isolates[side].new(class_name, list(args))
        if pin:
            self.pin(side, obj)
        return obj

    def call(self, side: str, receiver, method: str, args: list, pin: bool = True):
        """Invoke a method as code on `side` would."""
        iso = self.isolates[side]
        if isinstance(receiver, ProxyObj):
            result = self.remote_invoke(iso, receiver, method, list(args))
        elif isinstance(receiver, InstanceObj):
            decl = receiver.decl
            result = iso.call_method(decl, iso.method(decl, method), receiver,
                                     list(args))
        else:
            raise TypeError(f"cannot call methods on {receiver!r}")
        if pin and isinstance(result, HeapObject):
            self.pin(side, result)
        return result

    def make_list(self, side: str, items: list) -> ListObj:
        lst = ListObj(list(items))
        self.isolates[side].alloc(lst, charged=False)
        self.pin(side, lst)
        return lst

    def pin(self, side: str, value) -> None:
        """Root a value the host holds so a collection cannot reclaim it."""
        self.isolates[side].pins.append(value)

    def clear_pins(self, side: str) -> None:
        self.isolates[side].pins.clear()

    def force_gc(self, side: str, scan: bool = True) -> GcStats:
        return self.collect(self.isolates[side], scan)

    def registry_hashes(self, side: str) -> set[int]:
        return set(self.isolates[side].registry)

    def live_proxy_hashes(self, side: str) -> set[int]:
        iso = self.isolates[side]
        return {h for h, p in iso.proxy_table.items() if not p.swept}

    # -- transitions ----------------------------------------------------------

    def cross(self, caller: Isolate, relay: RelayMethodDef, kind: str,
              hash_value: int, args: list, serve, bound):
        """Call `relay` on the caller's peer, the target; returns (result,
        hash_out).

        The one boundary crossing; `kind` only labels the trace.  A nonzero
        hash_value names the target's mirror the relay runs on, which must
        be registered before any argument lands there.  serve, a runtime
        method (target, bound, hash_value, values), runs the relay's body
        there with `bound`, what the relay was bound to, and returns
        (result, hash_out); a hash_out that is not None becomes the trace
        event's hash.  Arguments that do not fit the relay fail before
        anything is billed.
        """
        target = self.peers[caller.side]
        if len(args) != len(relay.param_kinds):
            raise InterfaceMismatch(
                f"{relay.relay_id} takes {len(relay.param_kinds)} "
                f"argument(s), not {len(args)}")
        request_bytes = wire.measure(args, caller)
        if self.depth >= MAX_TRANSITION_DEPTH:
            raise TransitionOverflow(
                f"transition depth exceeded {MAX_TRANSITION_DEPTH} "
                f"entering {relay.relay_id}")
        ecall = relay.direction == "ecall"
        if ecall:
            caller.ecalls += 1
        else:
            caller.ocalls += 1
        caller.bytes_serialized += request_bytes
        event = None
        if self.traced:
            cost = self.model.ecall_cost if ecall else self.model.ocall_cost
            event = TraceEvent(len(self.trace) + 1, relay.direction, kind,
                               relay.relay_id, hash_value, request_bytes, cost)
            self.trace.append(event)
        self.depth += 1
        try:
            if hash_value and hash_value not in target.registry:
                raise StaleMirror(hash_value)
            values = wire.land(args, caller, target)
            result, hash_out = serve(target, bound, hash_value, values)
            unit = relay.return_kind is _UNIT
            response_bytes = 0 if unit \
                else wire.measure((result,), target)
        except DslRuntimeError as e:
            e.trace.append(f"-- {relay.direction} boundary {relay.relay_id} --")
            raise
        finally:
            self.depth -= 1
        target.bytes_serialized += response_bytes
        if event is not None:
            event.nbytes += response_bytes
            if hash_out is not None:
                event.hash_value = hash_out
        if unit:
            return None, hash_out
        return wire.land((result,), target, caller)[0], hash_out

    def _relay(self, iso: Isolate, class_name: str, method_name: str):
        """(relay, bound): the relay the image across from iso serves for
        the method, and what it was bound to.  On a one-isolate runtime
        there is no image across, so there is none."""
        far = _FAR_SIDE[iso.side]
        entry = self.relays[far].get((class_name, method_name))
        if entry is None:
            raise InterfaceMismatch(f"no relay {class_name}.{method_name} "
                                    f"in the {far} image")
        return entry

    def remote_new(self, iso: Isolate, class_name: str, args: list) -> ProxyObj:
        """`new` on a proxy class: run the constructor relay, bind the hash."""
        relay, decl = self._relay(iso, class_name, class_name)
        _, h = self.cross(iso, relay, "ctor", 0, args, self._new_mirror, decl)
        proxy = ProxyObj(class_name, h)
        iso.alloc(proxy, charged=True)
        iso.adopt_proxy(proxy)
        return proxy

    def _new_mirror(self, target: Isolate, decl: ast.ClassDecl,
                    hash_value: int, values: list):
        """A constructor relay's body: build the object, register its hash."""
        obj = target.instantiate(decl, values)
        # A constructor that sent `this` across paired it already; the
        # proxy the caller gets is bound to a hash of its own.
        target.pair_hash.pop(obj, None)
        return None, target.home_hash(obj)

    def remote_invoke(self, iso: Isolate, proxy: ProxyObj, method_name: str,
                      args: list):
        """Proxy method call: relay looks the mirror up and dispatches."""
        relay, bound = self._relay(iso, proxy.class_name, method_name)
        return self.cross(iso, relay, "invoke", proxy.hash_value, args,
                          self._invoke_mirror, bound)[0]

    def _invoke_mirror(self, target: Isolate, bound: tuple,
                       hash_value: int, values: list):
        """An instance relay's body: the method on the hash's mirror."""
        decl, method = bound
        return target.call_method(
            decl, method, target.registry[hash_value], values), None

    def host_call(self, iso: Isolate, name: str, args: list):
        """A host builtin: direct when untrusted, else a shim ocall."""
        relay, service = _HOST[name]
        if not iso.trusted:
            return service(self, iso, args)
        self.shim_ocalls += 1
        return self.cross(iso, relay, "shim", 0, args, self._serve_host,
                          service)[0]

    def _serve_host(self, target: Isolate, service, hash_value: int,
                    values: list):
        """A shim relay's body: the host service it was bound to."""
        return service(self, target, values), None

    def _print(self, iso: Isolate, args: list) -> None:
        self.transcript.append(args[0])

    def _file_write(self, iso: Isolate, args: list) -> None:
        self.vfs[args[0]] = args[1]
        iso.io_writes += 1

    def _file_read(self, iso: Isolate, args: list) -> str:
        path = args[0]
        if path not in self.vfs:
            raise DslRuntimeError(f"file_read of missing path: {path}")
        return self.vfs[path]

    # -- garbage collection hooks -------------------------------------------

    def collect(self, iso: Isolate, force_scan: bool) -> GcStats:
        """Collect `iso`'s heap; scan for swept proxies when forced (gc(),
        force_gc) or every gc_scan_every collections (gc_threshold ones)."""
        stats = iso.gc_collect()
        if force_scan or iso.collections_since_scan >= self.gc_scan_every:
            self._scan_cleared_proxies(iso)
            iso.collections_since_scan = 0
        return stats

    def _scan_cleared_proxies(self, iso: Isolate) -> None:
        """Report swept proxies so the other side can drop their mirrors."""
        cleared = iso.pop_cleared_proxies()
        if not cleared:
            return
        direction = "ecall" if iso.side == UNTRUSTED else "ocall"
        releases = self.release_relays
        for proxy in cleared:
            key = (proxy.class_name, direction)
            relay = releases.get(key)
            if relay is None:
                relay = releases[key] = RelayMethodDef(
                    proxy.class_name, "release", direction, (), _UNIT)
            self.remove_calls += 1
            self.cross(iso, relay, "remove", proxy.hash_value, [],
                       self._release_mirror, None)

    def _release_mirror(self, target: Isolate, bound: None,
                        hash_value: int, values: list):
        """A release relay's body: drop the hash's registry entry."""
        target.remove_mirror(hash_value)
        return None, None


def run_unpartitioned(program: ast.Program, argv: list[str] | None = None,
                      model: CostModel | None = None,
                      trace: bool = False) -> ExecutionResult:
    """Whole program inside the enclave, host builtins shimmed out."""
    plan = whole_program_plan(program, enclave=True)
    return DualRuntime(plan, model, trace=trace).run_main(argv)


def run_reference(program: ast.Program, argv: list[str] | None = None,
                  model: CostModel | None = None,
                  trace: bool = False) -> ExecutionResult:
    """Plain host run: no enclave, no shim; the behavioral reference."""
    plan = whole_program_plan(program, enclave=False)
    return DualRuntime(plan, model, trace=trace).run_main(argv)


# Host services by builtin name: the shim relay trusted code calls through,
# and the service run on the untrusted side.
_HOST = {
    "print": (RelayMethodDef("__host__", "print", "ocall",
                             (_SER,), _UNIT), DualRuntime._print),
    "file_write": (RelayMethodDef("__host__", "file_write", "ocall",
                                  (_SER, _SER), _UNIT), DualRuntime._file_write),
    "file_read": (RelayMethodDef("__host__", "file_read", "ocall",
                                 (_SER,), _SER), DualRuntime._file_read),
}
