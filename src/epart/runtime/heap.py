"""Heap objects, frames, and the records an isolate reports.

An isolate (interp.Isolate) keeps its objects in a list, its stack as
Frames, and its counters as plain ints; MetricCounters and GcStats are what
it reports of them.  An object's size, which the collector and the GC
threshold count, is its header plus one slot per field or list item.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..dsl.ast import ClassDecl

TRUSTED = "trusted"
UNTRUSTED = "untrusted"


class _Unset:
    """Sentinel for class-typed fields before first assignment."""


UNSET = _Unset()

_HEADER_BYTES = 16
SLOT_BYTES = 8


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
        return _HEADER_BYTES + SLOT_BYTES * len(self.decl.fields)

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
        return _HEADER_BYTES + SLOT_BYTES

    def __repr__(self) -> str:
        return f"<{self.class_name} proxy 0x{self.hash_value:016x}>"


class ListObj(HeapObject):
    __slots__ = ("items",)

    def __init__(self, items: list | None = None):
        self.marked = self.swept = False
        self.items: list = items if items is not None else []

    def size_bytes(self) -> int:
        return _HEADER_BYTES + SLOT_BYTES * len(self.items)

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
