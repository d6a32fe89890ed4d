"""Partitioning data model: marshal kinds, proxy classes, relay methods."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..dsl.ast import Annotation, ClassDecl, MethodDecl, Param, Program, TypeRef


class MarshalKind(str, Enum):
    """How a value crosses the isolate boundary.

    prim: copied by value (Int, Bool).
    ser:  serialized and deep-copied (Str, List, neutral class instances).
    href: passed as a 64-bit object hash resolving to a proxy or mirror.
    unit: no payload (returns only).
    """

    PRIM = "prim"
    SER = "ser"
    HREF = "href"
    UNIT = "unit"


def annotation_map(program: Program) -> dict[str, Annotation]:
    return {c.name: c.annotation for c in program.classes}


def classify(t: TypeRef, annotations: dict[str, Annotation]) -> MarshalKind:
    """Marshal kind for a declared parameter or return type."""
    if t.name == "Unit":
        return MarshalKind.UNIT
    if t.name in ("Int", "Bool"):
        return MarshalKind.PRIM
    if t.name in ("Str", "List"):
        return MarshalKind.SER
    ann = annotations[t.name]
    if ann == Annotation.NEUTRAL:
        return MarshalKind.SER
    return MarshalKind.HREF


def relay_direction(annotation: Annotation) -> str:
    """Relays of trusted classes are entered by ecall, untrusted ones by ocall."""
    return "ecall" if annotation == Annotation.TRUSTED else "ocall"


@dataclass(frozen=True)
class StubMethod:
    """A proxy method: original signature, no body."""

    name: str
    params: tuple[tuple[str, TypeRef], ...]
    return_type: TypeRef
    is_constructor: bool


@dataclass(frozen=True)
class ProxyClassDef:
    """Stand-in for an annotated class on the opposite side.

    Fields and bodies are stripped; the only state is the 64-bit object hash
    binding the proxy to its mirror.  direction names the transition its stubs
    issue when invoked.
    """

    class_name: str
    direction: str  # "ecall" (proxy for a trusted class) or "ocall"
    stubs: tuple[StubMethod, ...]


@dataclass(frozen=True)
class RelayMethodDef:
    """Static entry-point wrapper for one constructor or instance method.

    Conceptual signature: (isolate context, proxy hash, marshaled params).
    Constructor relays allocate the mirror and register it under the hash;
    instance relays look the mirror up and dispatch.
    """

    class_name: str
    method_name: str
    is_constructor: bool
    direction: str
    param_kinds: tuple[MarshalKind, ...]
    return_kind: MarshalKind

    @property
    def relay_id(self) -> str:
        return f"{self.class_name}.{self.method_name}"


def _stub_for(m: MethodDecl) -> StubMethod:
    return StubMethod(m.name, tuple((p.name, p.type) for p in m.params),
                      m.return_type, m.is_constructor)


def synthesize_relays(cls: ClassDecl, annotations: dict[str, Annotation],
                      ) -> list[RelayMethodDef]:
    """One relay per constructor and instance method of an annotated class.

    annotations maps every class of the program to its annotation.
    """
    if cls.annotation == Annotation.NEUTRAL:
        return []
    direction = relay_direction(cls.annotation)
    relays = []
    for m in cls.methods:
        if m.is_static:  # main never gets a relay; statics live on neutral classes
            continue
        kinds = tuple(classify(p.type, annotations) for p in m.params)
        ret = MarshalKind.UNIT if m.is_constructor \
            else classify(m.return_type, annotations)
        relays.append(RelayMethodDef(cls.name, m.name, m.is_constructor,
                                     direction, kinds, ret))
    return relays


def generate_proxies(program: Program) -> dict[str, ProxyClassDef]:
    """Proxy class per annotated class: signatures kept, state reduced to hash."""
    out: dict[str, ProxyClassDef] = {}
    for cls in program.classes:
        if cls.annotation == Annotation.NEUTRAL:
            continue
        stubs = tuple(_stub_for(m) for m in cls.methods if not m.is_static)
        out[cls.name] = ProxyClassDef(cls.name, relay_direction(cls.annotation), stubs)
    return out
