"""Heap objects, per-isolate state, and the mark-sweep collector.

Each isolate owns an explicit heap (a list of objects), an execution stack of
frames, the mirror-proxy registry (strong GC roots), and a table of the
proxies it created.  The table does not keep its proxies alive: the collector
does not trace it, and a proxy it sweeps stays in the table marked swept until
a scan drops it.  Events are counted here; the cost model prices them on read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..dsl.ast import ClassDecl
from .costmodel import CostModel

TRUSTED = "trusted"
UNTRUSTED = "untrusted"


class _Unset:
    """Sentinel for class-typed fields before first assignment."""


UNSET = _Unset()

_HEADER_BYTES = 16
_SLOT_BYTES = 8


class HeapObject:
    __slots__ = ("marked", "swept")  # each subclass's __init__ sets both


class InstanceObj(HeapObject):
    """A concrete class instance (trusted, untrusted or neutral)."""

    __slots__ = ("decl", "values")

    def __init__(self, decl: ClassDecl, values: dict | None = None):
        """values, when given, is the new object's own field dict."""
        self.marked = self.swept = False
        self.decl = decl
        self.values: dict[str, object] = values if values is not None \
            else {f.name: UNSET for f in decl.fields}

    def size_bytes(self) -> int:
        return _HEADER_BYTES + _SLOT_BYTES * len(self.decl.fields)

    def __repr__(self) -> str:
        return f"<{self.decl.name} instance>"


class ProxyObj(HeapObject):
    """Stand-in bound to a mirror in the opposite isolate by its hash."""

    __slots__ = ("class_name", "hash_value")

    def __init__(self, class_name: str, hash_value: int):
        self.marked = self.swept = False
        self.class_name = class_name
        self.hash_value = hash_value

    def size_bytes(self) -> int:
        return _HEADER_BYTES + _SLOT_BYTES

    def __repr__(self) -> str:
        return f"<{self.class_name} proxy 0x{self.hash_value:016x}>"


class ListObj(HeapObject):
    __slots__ = ("items",)

    def __init__(self, items: list | None = None):
        self.marked = self.swept = False
        self.items: list = items if items is not None else []

    def size_bytes(self) -> int:
        return _HEADER_BYTES + _SLOT_BYTES * len(self.items)

    def __repr__(self) -> str:
        return f"<list of {len(self.items)}>"


@dataclass
class MetricCounters:
    ecalls: int = 0
    ocalls: int = 0
    bytes_serialized: int = 0
    allocations: int = 0
    gc_runs: int = 0
    gc_cycles: int = 0
    mirror_registry_size: int = 0
    live_proxies: int = 0
    simulated_cycles: int = 0

    def as_lines(self) -> list[str]:
        return [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]


@dataclass
class GcStats:
    swept_objects: int
    swept_bytes: int
    live_objects: int
    live_bytes: int
    cycles: int


class Frame:
    __slots__ = ("env", "this", "temps")

    def __init__(self, env: dict[str, object], this=None):
        self.env = env
        self.this = this
        self.temps: list = []


class Isolate:
    """One simulated runtime: heap, stack, registry and event counts."""

    def __init__(self, side: str, model: CostModel):
        assert side in (TRUSTED, UNTRUSTED)
        self.side = side
        self.trusted = side == TRUSTED
        self.model = model
        self.heap: list[HeapObject] = []
        self.frames: list[Frame] = []
        # values the host API handed out; GC roots outside any frame.
        self.pins: list = []
        # hash -> mirror object; strong references, GC roots.
        self.registry: dict[int, HeapObject] = {}
        # mirror object -> hash, for reusing pairings on the return path.
        self.pair_hash: dict[HeapObject, int] = {}
        # hash -> each proxy this isolate created, in adoption order: proxy
        # reuse looks here, the GC helper's scan drops the swept ones.  Not
        # a GC root.
        self.proxy_table: dict[int, ProxyObj] = {}
        self.ecalls = 0
        self.ocalls = 0
        self.bytes_serialized = 0
        self.allocations = 0
        self.gc_runs = 0
        self.field_accesses = 0
        self.io_writes = 0
        self.compute_units: dict[int, int] = {}  # units -> compute events
        self.gc_bytes: dict[int, int] = {}  # bytes visited -> collections
        self.hash_counter = 0
        self.bytes_since_gc = 0
        self.collections_since_scan = 0

    @property
    def cycles_by_source(self) -> dict[str, int]:
        return self.model.price(self)

    @property
    def metrics(self) -> MetricCounters:
        """A snapshot of the counters, computed from their sources on read."""
        return self.counters(self.cycles_by_source)

    def counters(self, by_source: dict[str, int]) -> MetricCounters:
        return MetricCounters(
            self.ecalls, self.ocalls, self.bytes_serialized, self.allocations,
            self.gc_runs, by_source.get("gc", 0), len(self.registry),
            sum(not p.swept for p in self.proxy_table.values()),
            sum(by_source.values()))

    # -- allocation -----------------------------------------------------------

    def alloc(self, obj: HeapObject, charged: bool = True) -> HeapObject:
        self.heap.append(obj)
        self.bytes_since_gc += obj.size_bytes()
        if charged:
            self.allocations += 1
        return obj

    def grow_list(self, lst: ListObj, item) -> None:
        lst.items.append(item)
        self.bytes_since_gc += _SLOT_BYTES

    # -- object hashes ----------------------------------------------------------

    def mint_hash(self) -> int:
        self.hash_counter += 1
        bit = 1 << 63 if self.trusted else 0
        return bit | self.hash_counter

    def register_mirror(self, h: int, obj: HeapObject) -> None:
        self.registry[h] = obj
        self.pair_hash[obj] = h

    def remove_mirror(self, h: int) -> bool:
        """Drop a registry entry; no-op when absent (removal is idempotent)."""
        obj = self.registry.pop(h, None)
        if obj is None:
            return False
        if self.pair_hash.get(obj) == h:
            del self.pair_hash[obj]
        return True

    def adopt_proxy(self, proxy: ProxyObj) -> None:
        """Track a proxy created in this isolate (new or rebound hash)."""
        # A hash is only rebound once its old proxy is swept; the new proxy
        # moves to the end of the adoption order.
        self.proxy_table.pop(proxy.hash_value, None)
        self.proxy_table[proxy.hash_value] = proxy

    # -- garbage collection -----------------------------------------------------

    def gc_collect(self) -> GcStats:
        """Stop-the-world mark-sweep over this isolate's heap.

        Roots: every frame's locals, receiver and evaluation temporaries, the
        host's pins, plus the mirror-proxy registry values.  The proxy table
        is deliberately not traced.
        """
        grey: list[HeapObject] = []

        def push(v) -> None:
            if isinstance(v, HeapObject) and not v.marked and not v.swept:
                v.marked = True
                grey.append(v)

        for frame in self.frames:
            push(frame.this)
            for v in frame.env.values():
                push(v)
            for v in frame.temps:
                push(v)
        for v in self.pins:
            push(v)
        for v in self.registry.values():
            push(v)

        while grey:
            obj = grey.pop()
            if isinstance(obj, InstanceObj):
                for v in obj.values.values():
                    push(v)
            elif isinstance(obj, ListObj):
                for v in obj.items:
                    push(v)

        live: list[HeapObject] = []
        swept_bytes = 0
        live_bytes = 0
        for obj in self.heap:
            if obj.marked:
                obj.marked = False
                live.append(obj)
                live_bytes += obj.size_bytes()
            else:
                obj.swept = True
                swept_bytes += obj.size_bytes()
        swept_objects = len(self.heap) - len(live)
        self.heap = live

        visited = swept_bytes + live_bytes
        self.gc_runs += 1
        self.gc_bytes[visited] = self.gc_bytes.get(visited, 0) + 1
        self.bytes_since_gc = 0
        self.collections_since_scan += 1
        return GcStats(swept_objects, swept_bytes, len(live), live_bytes,
                       self.model.gc_cycles(visited, self.trusted))

    def pop_cleared_proxies(self) -> list[ProxyObj]:
        """Drop the swept proxies from the table; returns them in adoption
        order."""
        cleared = [p for p in self.proxy_table.values() if p.swept]
        if cleared:
            self.proxy_table = {h: p for h, p in self.proxy_table.items()
                                if not p.swept}
        return cleared
