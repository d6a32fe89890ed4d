"""Partitioning data model: marshal kinds, proxy stubs, relay methods."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from ..dsl.ast import Annotation, MethodDecl, Program, TypeRef


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


_ENTERED_BY = {Annotation.TRUSTED: "ecall", Annotation.UNTRUSTED: "ocall"}


def relay_direction(annotation: Annotation | None) -> str | None:
    """Relays of trusted classes are entered by ecall, untrusted ones by
    ocall.  None for a neutral class: nothing crosses into one."""
    return _ENTERED_BY.get(annotation)


@dataclass(frozen=True)
class RelayMethodDef:
    """Static entry-point wrapper for one constructor or instance method.

    Conceptual signature: (isolate context, proxy hash, marshaled params).
    Constructor relays allocate the mirror and register it under the hash;
    instance relays look the mirror up and dispatch.
    """

    class_name: str
    method_name: str
    direction: str
    param_kinds: tuple[MarshalKind, ...]
    return_kind: MarshalKind

    @cached_property
    def relay_id(self) -> str:
        return f"{self.class_name}.{self.method_name}"

    def render(self) -> str:
        """The relay's line in the interface descriptor."""
        kinds = ",".join(k.value for k in self.param_kinds)
        return (f"{self.direction} {self.class_name}.{self.method_name}"
                f"({kinds}) -> {self.return_kind.value}")

    @property
    def sort_key(self) -> tuple[str, str, str]:
        """The descriptor's order: (direction, class, method)."""
        return (self.direction, self.class_name, self.method_name)


def stub_for(m: MethodDecl) -> MethodDecl:
    """The proxy stub of a constructor or instance method: m without its
    body."""
    return MethodDecl(m.name, m.params, m.return_type, [], m.is_constructor,
                      m.is_static)


def relay_for(class_name: str, stub: MethodDecl,
              annotations: dict[str, Annotation]) -> RelayMethodDef:
    """The relay of the method of an annotated class that stub is the
    stub_for of.

    annotations maps every class of the program to its annotation.
    """
    kinds = tuple(classify(p.type, annotations) for p in stub.params)
    ret = MarshalKind.UNIT if stub.is_constructor \
        else classify(stub.return_type, annotations)
    return RelayMethodDef(class_name, stub.name,
                          relay_direction(annotations[class_name]), kinds, ret)
