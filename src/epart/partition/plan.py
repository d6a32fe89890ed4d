"""Partition plan computation: class placement, pruning, interface records.

The plan is computed as a shrinking fixpoint.  Relays of a class are entry
points of its home image, but a relay only survives if its proxy stub is
reachable in the opposite image; dropping a relay shrinks its image's seed set,
which can strand further stubs, so the two reachability closures iterate until
stable.  Both images then keep only reachable methods, reachable proxy stubs,
and the neutral classes needed to decode payload types.

One validation walk resolves every call, and each image's call-graph edges
are built from it once: only reachability iterates, and the graphs of the
last iteration are the ones the images are cut from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dsl.ast import Annotation, ClassDecl, MethodDecl, Program, TypeRef
from ..dsl.validate import resolve, validate
from ..errors import ValidationFailed
from . import callgraph
from .callgraph import CONCRETE, PROXY, Node
from .model import (
    MarshalKind, ProxyClassDef, RelayMethodDef, StubMethod, annotation_map,
    generate_proxies, synthesize_relays,
)


@dataclass(frozen=True)
class InterfaceRecord:
    direction: str  # "ecall" or "ocall"
    class_name: str
    method_name: str
    param_kinds: tuple[MarshalKind, ...]
    return_kind: MarshalKind

    def render(self) -> str:
        kinds = ",".join(k.value for k in self.param_kinds)
        return (f"{self.direction} {self.class_name}.{self.method_name}"
                f"({kinds}) -> {self.return_kind.value}")

    @property
    def sort_key(self) -> tuple[str, str, str]:
        return (self.direction, self.class_name, self.method_name)


@dataclass
class InterfaceDescriptor:
    records: list[InterfaceRecord] = field(default_factory=list)

    def lookup(self, class_name: str, method_name: str) -> InterfaceRecord | None:
        for r in self.records:
            if r.class_name == class_name and r.method_name == method_name:
                return r
        return None


@dataclass
class ImageSpec:
    """One native image: concrete classes, surviving proxies and relays."""

    side: Annotation
    classes: list[ClassDecl] = field(default_factory=list)
    proxies: list[ProxyClassDef] = field(default_factory=list)
    relays: list[RelayMethodDef] = field(default_factory=list)
    entry_points: list[str] = field(default_factory=list)

    def class_decl(self, name: str) -> ClassDecl | None:
        for c in self.classes:
            if c.name == name:
                return c
        return None

    def proxy_def(self, name: str) -> ProxyClassDef | None:
        for p in self.proxies:
            if p.class_name == name:
                return p
        return None


@dataclass
class PartitionPlan:
    trusted_image: ImageSpec | None      # None: no enclave at all
    untrusted_image: ImageSpec
    descriptor: InterfaceDescriptor
    annotations: dict[str, Annotation]   # every program class, declaration order
    class_ids: dict[str, int]            # stable ids for the wire format

    def image(self, side: Annotation) -> ImageSpec | None:
        return self.trusted_image if side == Annotation.TRUSTED else self.untrusted_image


def _type_class_names(t: TypeRef) -> set[str]:
    if t.name == "List":
        return _type_class_names(t.elem) if t.elem is not None else set()
    if t.name in ("Int", "Bool", "Str", "Unit"):
        return set()
    return {t.name}


def _signature_refs(m: MethodDecl) -> set[str]:
    refs: set[str] = set()
    for p in m.params:
        refs |= _type_class_names(p.type)
    refs |= _type_class_names(m.return_type)
    return refs


def _main_node(program: Program) -> Node:
    cls, m = program.main_location()
    return (CONCRETE, cls.name, m.name)


def compute_images(program: Program) -> PartitionPlan:
    """Split a validated program into trusted and untrusted image specs."""
    report, calls = resolve(program)
    if not report.ok:
        raise ValidationFailed(report)

    annotations = annotation_map(program)
    classes = {c.name: c for c in program.classes}
    proxies = generate_proxies(program)
    all_relays = [r for c in program.classes
                  for r in synthesize_relays(c, annotations)]

    surviving: set[tuple[str, str]] = {(r.class_name, r.method_name)
                                       for r in all_relays}
    main_node = _main_node(program)
    t_edges = callgraph.image_edges(program, Annotation.TRUSTED, calls)
    u_edges = callgraph.image_edges(program, Annotation.UNTRUSTED, calls)

    def closures(surv: set[tuple[str, str]]):
        t_seeds = [(CONCRETE, c, m) for (c, m) in sorted(surv)
                   if annotations[c] == Annotation.TRUSTED]
        u_seeds = [main_node] + [(CONCRETE, c, m) for (c, m) in sorted(surv)
                                 if annotations[c] == Annotation.UNTRUSTED]
        return (callgraph.closure(Annotation.TRUSTED, t_edges, t_seeds),
                callgraph.closure(Annotation.UNTRUSTED, u_edges, u_seeds))

    while True:
        g_t, g_u = closures(surviving)
        next_surviving = set()
        for r in all_relays:
            stub_node = (PROXY, r.class_name, r.method_name)
            opposite = g_u if r.direction == "ecall" else g_t
            if stub_node in opposite.reachable:
                next_surviving.add((r.class_name, r.method_name))
        if next_surviving == surviving:
            break
        surviving = next_surviving

    def build_image(side: Annotation, graph: callgraph.CallGraph) -> ImageSpec:
        spec = ImageSpec(side)
        reachable = graph.reachable

        kept: dict[str, ClassDecl] = {}
        for cls in program.classes:
            if cls.annotation != side and cls.annotation != Annotation.NEUTRAL:
                continue
            methods = [m for m in cls.methods
                       if (CONCRETE, cls.name, m.name) in reachable]
            if methods:
                kept[cls.name] = ClassDecl(cls.name, cls.annotation,
                                           cls.fields, methods)

        # Type closure: neutral classes named by kept signatures and fields must
        # ship with the image so serialized payloads can be decoded.
        def referenced(c: ClassDecl) -> set[str]:
            refs: set[str] = set()
            for f in c.fields:
                refs |= _type_class_names(f.type)
            for m in c.methods:
                refs |= _signature_refs(m)
            return refs

        work = list(kept.values())
        while work:
            cls = work.pop()
            for name in sorted(referenced(cls)):
                if name in kept or annotations[name] != Annotation.NEUTRAL:
                    continue
                decl = classes[name]
                methods = [m for m in decl.methods
                           if (CONCRETE, name, m.name) in reachable]
                kept[name] = ClassDecl(name, decl.annotation, decl.fields, methods)
                work.append(kept[name])

        spec.classes = [kept[c.name] for c in program.classes if c.name in kept]

        for cls in program.classes:
            proxy = proxies.get(cls.name)
            if proxy is None or annotations[cls.name] == side:
                continue
            stubs = tuple(s for s in proxy.stubs
                          if (PROXY, cls.name, s.name) in reachable)
            if stubs:
                spec.proxies.append(ProxyClassDef(cls.name, proxy.direction, stubs))

        own_direction = "ecall" if side == Annotation.TRUSTED else "ocall"
        spec.relays = [r for r in all_relays
                       if r.direction == own_direction
                       and (r.class_name, r.method_name) in surviving]
        spec.entry_points = sorted(r.relay_id for r in spec.relays)
        if side == Annotation.UNTRUSTED:
            spec.entry_points = ["main"] + spec.entry_points
        return spec

    trusted_image = build_image(Annotation.TRUSTED, g_t)
    untrusted_image = build_image(Annotation.UNTRUSTED, g_u)

    records = [InterfaceRecord(r.direction, r.class_name, r.method_name,
                               r.param_kinds, r.return_kind)
               for r in trusted_image.relays + untrusted_image.relays]
    descriptor = InterfaceDescriptor(sorted(records, key=lambda r: r.sort_key))

    class_ids = {name: i for i, name in enumerate(sorted(annotations))}
    return PartitionPlan(trusted_image, untrusted_image, descriptor,
                         dict(annotations), class_ids)


def whole_program_plan(program: Program, enclave: bool) -> PartitionPlan:
    """Every class in one image: the unpartitioned baselines.

    With enclave set, the whole program is the trusted image and the empty
    untrusted image only serves host shims.  Without it there is no trusted
    image at all, so nothing crosses a boundary and nothing pays the EPC
    penalty.
    """
    report = validate(program)
    if not report.ok:
        raise ValidationFailed(report)
    annotations = annotation_map(program)
    side = Annotation.TRUSTED if enclave else Annotation.UNTRUSTED
    whole = ImageSpec(side, list(program.classes), entry_points=["main"])
    if enclave:
        trusted, untrusted = whole, ImageSpec(Annotation.UNTRUSTED)
    else:
        trusted, untrusted = None, whole
    class_ids = {name: i for i, name in enumerate(sorted(annotations))}
    return PartitionPlan(trusted, untrusted, InterfaceDescriptor(),
                         annotations, class_ids)
