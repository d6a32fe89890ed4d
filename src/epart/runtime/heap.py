"""Heap objects, per-isolate state, and the mark-sweep collector.

Each isolate owns an explicit heap (a list of objects), an execution stack of
frames, the mirror-proxy registry (strong GC roots), and weak bookkeeping for
the proxies it created.  Weakness is modeled directly: a WeakSlot reads None
once its referent has been swept, without relying on the host GC.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..dsl.ast import ClassDecl
from .costmodel import CostModel

TRUSTED = "trusted"
UNTRUSTED = "untrusted"


def other_side(side: str) -> str:
    return UNTRUSTED if side == TRUSTED else TRUSTED


class _Unset:
    """Sentinel for class-typed fields before first assignment."""

    def __repr__(self) -> str:
        return "<unset>"


UNSET = _Unset()

_HEADER_BYTES = 16
_SLOT_BYTES = 8


class HeapObject:
    __slots__ = ("marked", "swept")

    def __init__(self) -> None:
        self.marked = False
        self.swept = False

    def size_bytes(self) -> int:
        raise NotImplementedError


class InstanceObj(HeapObject):
    """A concrete class instance (trusted, untrusted or neutral)."""

    __slots__ = ("decl", "values")

    def __init__(self, decl: ClassDecl):
        super().__init__()
        self.decl = decl
        self.values: dict[str, object] = {f.name: UNSET for f in decl.fields}

    def size_bytes(self) -> int:
        return _HEADER_BYTES + _SLOT_BYTES * len(self.decl.fields)

    def __repr__(self) -> str:
        return f"<{self.decl.name} instance>"


class ProxyObj(HeapObject):
    """Stand-in bound to a mirror in the opposite isolate by its hash."""

    __slots__ = ("class_name", "hash_value")

    def __init__(self, class_name: str, hash_value: int):
        super().__init__()
        self.class_name = class_name
        self.hash_value = hash_value

    def size_bytes(self) -> int:
        return _HEADER_BYTES + _SLOT_BYTES

    def __repr__(self) -> str:
        return f"<{self.class_name} proxy 0x{self.hash_value:016x}>"


class ListObj(HeapObject):
    __slots__ = ("items",)

    def __init__(self, items: list | None = None):
        super().__init__()
        self.items: list = items if items is not None else []

    def size_bytes(self) -> int:
        return _HEADER_BYTES + _SLOT_BYTES * len(self.items)

    def __repr__(self) -> str:
        return f"<list of {len(self.items)}>"


class WeakSlot:
    """Weak reference: reads None after its referent is swept."""

    __slots__ = ("referent",)

    def __init__(self, referent: HeapObject):
        self.referent = referent

    def get(self) -> HeapObject | None:
        if self.referent.swept:
            return None
        return self.referent


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
    """One simulated runtime: heap, stack, registry, metrics, cost account."""

    def __init__(self, side: str, model: CostModel):
        assert side in (TRUSTED, UNTRUSTED)
        self.side = side
        self.trusted = side == TRUSTED
        self.model = model
        self.heap: list[HeapObject] = []
        self.frames: list[Frame] = []
        # values the host API handed out; GC roots outside any frame.
        self.pins: dict[str, object] = {}
        # hash -> mirror object; strong references, GC roots.
        self.registry: dict[int, HeapObject] = {}
        # mirror object -> hash, for reusing pairings on the return path.
        self.pair_hash: dict[HeapObject, int] = {}
        # hash -> weak slot of each proxy this isolate created, in adoption
        # order: proxy reuse looks here, the GC helper's scan drops the
        # cleared slots.
        self.proxy_table: dict[int, WeakSlot] = {}
        self.metrics = MetricCounters()
        self.cycles_by_source: dict[str, int] = {}
        self.hash_counter = 0
        self.bytes_since_gc = 0
        self.collections_since_scan = 0

    # -- cost accounting ----------------------------------------------------

    def charge(self, source: str, cycles: int) -> None:
        self.metrics.simulated_cycles += cycles
        self.cycles_by_source[source] = self.cycles_by_source.get(source, 0) + cycles

    def charge_scaled(self, source: str, base: int) -> int:
        cycles = self.model.scaled(base, self.trusted)
        self.charge(source, cycles)
        return cycles

    def charge_serialize(self, nbytes: int) -> None:
        self.metrics.bytes_serialized += nbytes
        self.charge("serialize", self.model.serialize_per_byte * nbytes)

    # -- allocation -----------------------------------------------------------

    def alloc(self, obj: HeapObject, charged: bool = True) -> HeapObject:
        self.heap.append(obj)
        self.bytes_since_gc += obj.size_bytes()
        if charged:
            self.metrics.allocations += 1
            self.charge_scaled("alloc", self.model.alloc_cost)
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
        self.metrics.mirror_registry_size = len(self.registry)

    def remove_mirror(self, h: int) -> bool:
        """Drop a registry entry; no-op when absent (removal is idempotent)."""
        obj = self.registry.pop(h, None)
        self.metrics.mirror_registry_size = len(self.registry)
        if obj is None:
            return False
        if self.pair_hash.get(obj) == h:
            del self.pair_hash[obj]
        return True

    def adopt_proxy(self, proxy: ProxyObj) -> None:
        """Track a proxy created in this isolate (new or rebound hash)."""
        # A hash is only rebound once its old proxy is swept; the new slot
        # moves to the end of the adoption order.
        self.proxy_table.pop(proxy.hash_value, None)
        self.proxy_table[proxy.hash_value] = WeakSlot(proxy)
        self.metrics.live_proxies += 1

    def live_proxy_count(self) -> int:
        return self.metrics.live_proxies

    # -- garbage collection -----------------------------------------------------

    def gc_collect(self) -> GcStats:
        """Stop-the-world mark-sweep over this isolate's heap.

        Roots: every frame's locals, receiver and evaluation temporaries, the
        host's pins, plus the mirror-proxy registry values.  Weak structures
        (proxy table, weak list) are deliberately not traced.
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
        for v in self.pins.values():
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
        swept_objects = 0
        swept_bytes = 0
        live_bytes = 0
        for obj in self.heap:
            if obj.marked:
                obj.marked = False
                live.append(obj)
                live_bytes += obj.size_bytes()
            else:
                obj.swept = True
                swept_objects += 1
                swept_bytes += obj.size_bytes()
                if isinstance(obj, ProxyObj):
                    self.metrics.live_proxies -= 1
        self.heap = live

        cycles = self.model.scaled(
            (swept_bytes + live_bytes) * self.model.field_access_cost, self.trusted)
        self.metrics.gc_runs += 1
        self.metrics.gc_cycles += cycles
        self.charge("gc", cycles)
        self.bytes_since_gc = 0
        self.collections_since_scan += 1
        return GcStats(swept_objects, swept_bytes, len(live), live_bytes, cycles)

    def pop_cleared_proxies(self) -> list[tuple[int, WeakSlot]]:
        """Drop the slots of swept proxies; returns them in adoption order."""
        cleared = [(h, s) for h, s in self.proxy_table.items() if s.get() is None]
        if cleared:
            self.proxy_table = {h: s for h, s in self.proxy_table.items()
                                if s.get() is not None}
        return cleared
