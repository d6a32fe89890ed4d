"""Two-isolate execution of a partition plan.

Each side runs its own interpreter over its own heap.  The unpartitioned
baselines are plans too (see whole_program_plan): every class in the
trusted image with the untrusted isolate only serving host shims, or every
class in the untrusted image with no trusted isolate at all.  Every boundary
crossing is a call of one relay through DualRuntime.cross: constructor and
instance-method relays of annotated classes, the host shims __host__.print,
__host__.file_write and __host__.file_read, and <Class>.release for a
mirror whose proxy was swept.  The caller pays the ecall/ocall cost,
arguments travel as canonical wire bytes, and serialization is charged to
whichever side encoded the bytes.  Transition framing (context and hash
words) rides for free; unit responses carry no payload at all.  A runtime
built with trace=True also keeps one TraceEvent per crossing; without it a
crossing does only the work it bills.

A crossing marshals in one pass each way.  wire.encode_values writes the
arguments' bytes as it walks them, before the transition is billed, so a
value that cannot cross fails first; wire.decode_values builds the target's
heap objects straight from those bytes, after the mirror check; the result
goes back the same way.  The byte format lives in wire.py; this module
keeps the landing policy it calls back into: home_hash, resolve_href and
decl_for_id.

Object identity across the boundary is a 64-bit hash minted by an
object's home isolate at first exposure.  The home side keeps the hash
to mirror pairing in its registry (a strong GC root); the other side
tracks its proxies weakly so a collection can report unreferenced
hashes back, letting the home side drop the mirror.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from ..dsl import ast
from ..errors import (
    DslRuntimeError, InterfaceMismatch, MarshalError, StaleMirror,
    TransitionOverflow,
)
from ..partition.model import MarshalKind, RelayMethodDef
from ..partition.plan import PartitionPlan, find_main, whole_program_plan
from . import wire
from .costmodel import CostModel
from .heap import (
    TRUSTED, UNTRUSTED, GcStats, HeapObject, InstanceObj, Isolate,
    ListObj, MetricCounters, ProxyObj,
)
from .interp import Interpreter, ensure_recursion_headroom

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
        # image side -> (class, method) -> the relay that image serves; a
        # side without an image serves none
        self.relays: dict[str, dict[tuple[str, str], RelayMethodDef]] = {
            side: {} for side in _SIDE_NAME.values()}
        self.interps: dict[str, Interpreter] = {}
        # Interpreters reach the runtime through a weak proxy, so a dropped
        # runtime and its heaps are freed at once, not by the cyclic GC.
        context = weakref.proxy(self)
        for annotation, side in _SIDE_NAME.items():
            image = plan.image(annotation)
            if image is None:
                continue
            self.isolates[side] = Isolate(side, self.model)
            self.relays[side] = {(r.class_name, r.method_name): r
                                 for r in image.relays}
            self.interps[side] = Interpreter(self.isolates[side],
                                             image.classes, context)
        self.class_ids = plan.class_ids
        self.class_names = {i: n for n, i in plan.class_ids.items()}
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
        self.interps[side].call_method(cls, m, None, args)
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
        obj = self.interps[side].new(class_name, list(args))
        if pin:
            self.pin(side, obj)
        return obj

    def call(self, side: str, receiver, method: str, args: list, pin: bool = True):
        """Invoke a method as code on `side` would."""
        if isinstance(receiver, ProxyObj):
            result = self.remote_invoke(self.isolates[side], receiver,
                                        method, list(args))
        elif isinstance(receiver, InstanceObj):
            decl, interp = receiver.decl, self.interps[side]
            result = interp.call_method(
                decl, interp.method(decl, method), receiver, list(args))
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

    # -- landing policy (wire.encode_values and decode_values call these) -----

    def home_hash(self, iso: Isolate, obj: InstanceObj) -> int:
        """The hash `iso` sends for one of its own objects: its pairing,
        minted and registered on first exposure."""
        h = iso.pair_hash.get(obj)
        if h is None:
            h = iso.mint_hash()
            iso.register_mirror(h, obj)
        return h

    def _class_name(self, class_id: int) -> str:
        name = self.class_names.get(class_id)
        if name is None:
            raise MarshalError(f"unknown class id {class_id}")
        return name

    def decl_for_id(self, iso: Isolate, class_id: int) -> ast.ClassDecl:
        name = self._class_name(class_id)
        decl = self.interps[iso.side].classes.get(name)
        if decl is None:
            raise MarshalError(f"class {name} is not present in the "
                               f"{iso.side} image")
        return decl

    def resolve_href(self, iso: Isolate, h: int, class_id: int):
        """A hash arriving at `iso`: mirror lookup at home, proxy elsewhere."""
        home = TRUSTED if (h >> 63) & 1 else UNTRUSTED
        if home == iso.side:
            obj = iso.registry.get(h)
            if obj is None:
                raise StaleMirror(h)
            return obj
        proxy = iso.proxy_table.get(h)
        if proxy is not None and not proxy.swept:
            return proxy
        proxy = ProxyObj(self._class_name(class_id), h)
        iso.alloc(proxy, charged=False)
        iso.adopt_proxy(proxy)
        return proxy

    # -- transitions ----------------------------------------------------------

    def cross(self, caller: Isolate, relay: RelayMethodDef, kind: str,
              hash_value: int, args: list, serve):
        """Call `relay` on the caller's peer, the target; returns (result,
        hash_out).

        The one boundary crossing; `kind` only labels the trace.  A nonzero
        hash_value names the target's mirror the relay runs on, which must
        be registered before any argument lands there.  serve, a runtime
        method (target, relay, hash_value, values), runs the relay's body
        there and returns (result, hash_out); a hash_out that is not None
        becomes the trace event's hash.  Arguments that do not fit the
        relay fail before anything is billed.
        """
        target = self.peers[caller.side]
        if len(args) != len(relay.param_kinds):
            raise InterfaceMismatch(
                f"{relay.relay_id} takes {len(relay.param_kinds)} "
                f"argument(s), not {len(args)}")
        request = wire.encode_values(args, caller, self)
        if self.depth >= MAX_TRANSITION_DEPTH:
            raise TransitionOverflow(
                f"transition depth exceeded {MAX_TRANSITION_DEPTH} "
                f"entering {relay.relay_id}")
        ecall = relay.direction == "ecall"
        if ecall:
            caller.ecalls += 1
        else:
            caller.ocalls += 1
        caller.bytes_serialized += len(request)
        event = None
        if self.traced:
            cost = self.model.ecall_cost if ecall else self.model.ocall_cost
            event = TraceEvent(len(self.trace) + 1, relay.direction, kind,
                               relay.relay_id, hash_value, len(request), cost)
            self.trace.append(event)
        self.depth += 1
        try:
            if hash_value and hash_value not in target.registry:
                raise StaleMirror(hash_value)
            values = wire.decode_values(request, len(relay.param_kinds),
                                        target, self)
            result, hash_out = serve(target, relay, hash_value, values)
            response = b"" if relay.return_kind is _UNIT \
                else wire.encode_values((result,), target, self)
        except DslRuntimeError as e:
            e.trace.append(f"-- {relay.direction} boundary {relay.relay_id} --")
            raise
        finally:
            self.depth -= 1
        target.bytes_serialized += len(response)
        if event is not None:
            event.nbytes += len(response)
            if hash_out is not None:
                event.hash_value = hash_out
        if not response:
            return None, hash_out
        return wire.decode_values(response, 1, caller, self)[0], hash_out

    def _relay(self, iso: Isolate, class_name: str,
               method_name: str) -> RelayMethodDef:
        """The relay the image across from iso serves for the method.  On a
        one-isolate runtime there is no image across, so there is none."""
        far = _FAR_SIDE[iso.side]
        relay = self.relays[far].get((class_name, method_name))
        if relay is None:
            raise InterfaceMismatch(f"no relay {class_name}.{method_name} "
                                    f"in the {far} image")
        return relay

    def remote_new(self, iso: Isolate, class_name: str, args: list) -> ProxyObj:
        """`new` on a proxy class: run the constructor relay, bind the hash."""
        relay = self._relay(iso, class_name, class_name)
        _, h = self.cross(iso, relay, "ctor", 0, args, self._new_mirror)
        proxy = ProxyObj(class_name, h)
        iso.alloc(proxy, charged=True)
        iso.adopt_proxy(proxy)
        return proxy

    def _new_mirror(self, target: Isolate, relay: RelayMethodDef,
                    hash_value: int, values: list):
        """A constructor relay's body: build the object, register its hash."""
        interp = self.interps[target.side]
        obj = interp.instantiate(interp.classes[relay.class_name], values)
        h = target.mint_hash()
        target.register_mirror(h, obj)
        return None, h

    def remote_invoke(self, iso: Isolate, proxy: ProxyObj, method_name: str,
                      args: list):
        """Proxy method call: relay looks the mirror up and dispatches."""
        relay = self._relay(iso, proxy.class_name, method_name)
        return self.cross(iso, relay, "invoke", proxy.hash_value, args,
                          self._invoke_mirror)[0]

    def _invoke_mirror(self, target: Isolate, relay: RelayMethodDef,
                       hash_value: int, values: list):
        """An instance relay's body: the method on the hash's mirror."""
        interp = self.interps[target.side]
        decl = interp.classes[relay.class_name]
        return interp.call_method(
            decl, interp.method(decl, relay.method_name),
            target.registry[hash_value], values), None

    def host_call(self, iso: Isolate, name: str, args: list):
        """A host builtin: direct when untrusted, else a shim ocall."""
        relay, service = _HOST[name]
        if not iso.trusted:
            return service(self, iso, args)
        self.shim_ocalls += 1
        return self.cross(iso, relay, "shim", 0, args, self._serve_host)[0]

    def _serve_host(self, target: Isolate, relay: RelayMethodDef,
                    hash_value: int, values: list):
        """A shim relay's body: the host service of that name."""
        return _HOST[relay.method_name][1](self, target, values), None

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
                       self._release_mirror)

    def _release_mirror(self, target: Isolate, relay: RelayMethodDef,
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
