"""Partition plan computation: class placement, pruning, interface records.

The plan is computed by one worklist walk that starts at main in the
untrusted image and follows both images' call edges.  Reaching a proxy stub
(PROXY, C, m) in one image keeps relay C.m and continues the walk at
(CONCRETE, C, m) in the image of C's annotation, so every kept relay is
reached from main.  Each image then keeps its reached methods and proxy
stubs, and the neutral classes needed to decode payload types.

An image's relays follow from the other image's proxies: derive_interface
checks each proxy and makes them, so no image stores them.  find_main
locates main.

One validation walk resolves every call, and each image's call-graph edges
are built from it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dsl.ast import (
    Annotation, ClassDecl, MethodDecl, Program, TypeRef, method_table,
)
from ..dsl.validate import resolve, validate
from ..errors import InterfaceMismatch, ValidationFailed
from . import callgraph
from .callgraph import CONCRETE, PROXY, Node
from .model import RelayMethodDef, annotation_map, relay_for, stub_for


@dataclass
class ImageSpec:
    """One native image: concrete classes and surviving proxies, and the
    relays derive_interface gives them.  A proxy is its class without
    fields, whose methods are the stub_for of each kept method."""

    side: Annotation
    classes: list[ClassDecl] = field(default_factory=list)
    proxies: list[ClassDecl] = field(default_factory=list)
    relays: list[RelayMethodDef] = field(default_factory=list)


@dataclass
class PartitionPlan:
    """Two images and the annotations; everything else is derived."""

    trusted_image: ImageSpec | None      # None: no enclave at all
    untrusted_image: ImageSpec
    annotations: dict[str, Annotation]   # every program class, declaration order
    class_ids: dict[str, int] = field(init=False)  # stable ids for the wire format

    def __post_init__(self) -> None:
        self.class_ids = {name: i for i, name in enumerate(sorted(self.annotations))}

    def image(self, side: Annotation) -> ImageSpec | None:
        return self.trusted_image if side == Annotation.TRUSTED else self.untrusted_image

    @property
    def descriptor(self) -> list[RelayMethodDef]:
        """The interface: both images' relays, sorted by RelayMethodDef.sort_key.
        Built on each read, so it always lists the images' relays."""
        images = (self.trusted_image, self.untrusted_image)
        return sorted((r for image in images if image for r in image.relays),
                      key=lambda r: r.sort_key)


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


def compute_images(program: Program) -> PartitionPlan:
    """Split a validated program into trusted and untrusted image specs."""
    report, calls = resolve(program)
    if not report.ok:
        raise ValidationFailed(report)

    annotations = annotation_map(program)
    classes = {c.name: c for c in program.classes}
    sides = (Annotation.TRUSTED, Annotation.UNTRUSTED)
    edges = {side: callgraph.image_edges(program, side, calls) for side in sides}
    reached: dict[Annotation, set[Node]] = {side: set() for side in sides}
    main_cls, main = program.main_location()
    work = [(Annotation.UNTRUSTED, (CONCRETE, main_cls.name, main.name))]
    while work:
        side, node = work.pop()
        seen = reached[side]
        if node in seen:
            continue
        seen.add(node)
        kind, cname, mname = node
        if kind == PROXY:  # relay cname.mname is kept; its body runs at home
            work.append((annotations[cname], (CONCRETE, cname, mname)))
        else:
            work += [(side, succ) for succ in edges[side][node] if succ not in seen]

    def build_image(side: Annotation) -> ImageSpec:
        """The image of side, cut from its reached nodes."""
        spec = ImageSpec(side)
        reachable = reached[side]
        kept: dict[str, ClassDecl] = {}
        names: set[str] = set()  # classes the stubs' signatures name
        for cls in program.classes:
            if cls.annotation not in (side, Annotation.NEUTRAL):
                stubs = [m for m in cls.methods
                         if (PROXY, cls.name, m.name) in reachable]
                if stubs:
                    spec.proxies.append(ClassDecl(cls.name, cls.annotation, [],
                                                  [stub_for(m) for m in stubs]))
                    for m in stubs:
                        names |= _signature_refs(m)
                continue
            methods = [m for m in cls.methods
                       if (CONCRETE, cls.name, m.name) in reachable]
            if methods:
                kept[cls.name] = ClassDecl(cls.name, cls.annotation,
                                           cls.fields, methods)

        # Type closure: neutral classes named by kept fields and signatures,
        # and by reached stubs, must ship with the image so serialized
        # payloads can be decoded.
        def referenced(c: ClassDecl) -> set[str]:
            refs: set[str] = set()
            for f in c.fields:
                refs |= _type_class_names(f.type)
            for m in c.methods:
                refs |= _signature_refs(m)
            return refs

        pending = [names] + [referenced(c) for c in kept.values()]
        while pending:
            for name in pending.pop():
                if name in kept or annotations[name] != Annotation.NEUTRAL:
                    continue
                decl = classes[name]
                methods = [m for m in decl.methods
                           if (CONCRETE, name, m.name) in reachable]
                kept[name] = ClassDecl(name, decl.annotation, decl.fields, methods)
                pending.append(referenced(kept[name]))

        spec.classes = [kept[c.name] for c in program.classes if c.name in kept]
        return spec

    return derive_interface(PartitionPlan(
        build_image(Annotation.TRUSTED), build_image(Annotation.UNTRUSTED),
        annotations))


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
    side = Annotation.TRUSTED if enclave else Annotation.UNTRUSTED
    whole = ImageSpec(side, list(program.classes))
    if enclave:
        trusted, untrusted = whole, ImageSpec(Annotation.UNTRUSTED)
    else:
        trusted, untrusted = None, whole
    return derive_interface(PartitionPlan(trusted, untrusted,
                                          annotation_map(program)))


def derive_interface(plan: PartitionPlan) -> PartitionPlan:
    """Check each image's proxies against the other image, set that image's
    relays to the relays of their stubs, in stub order, and return plan.

    A proxy has no fields, and its annotation is its class's in the table
    and the other image's side.  Each stub is the stub_for of its entry in
    the other image's method_table, built from that image's classes keyed by
    name as the runtime keys them: the method a call on the proxy runs.  It
    names only classes in the table, List elements included.  Anything else
    is an InterfaceMismatch, so no relay is made of an unchecked stub.
    """
    annotations = plan.annotations
    images = (plan.trusted_image, plan.untrusted_image)
    for spec, far in zip(images, reversed(images)):
        if far is None:
            continue
        far.relays = []
        if spec is None or not spec.proxies:
            continue
        side = spec.side.value.lower()
        methods = method_table({c.name: c for c in far.classes})
        for proxy in spec.proxies:
            name = proxy.name
            if not proxy.annotation == annotations.get(name) == far.side:
                raise InterfaceMismatch(
                    f"proxy {name} in the {side} image is not @{far.side.value} "
                    "in its record and the annotation table")
            if proxy.fields:
                raise InterfaceMismatch(f"proxy {name} in the {side} image "
                                        "has fields")
            for stub in proxy.methods:
                method = methods.get((name, stub.name))
                if method is None or stub_for(method) != stub:
                    raise InterfaceMismatch(
                        f"stub {name}.{stub.name} in the {side} image is not "
                        "the signature of a method of the other image")
                unknown = [n for n in _signature_refs(stub)
                           if n not in annotations]
                if unknown:
                    raise InterfaceMismatch(
                        f"stub {name}.{stub.name} names class {min(unknown)}, "
                        "which the annotation table lacks")
                far.relays.append(relay_for(name, stub, annotations))
    return plan


def find_main(plan: PartitionPlan) -> tuple[ImageSpec, ClassDecl, MethodDecl]:
    """The image that holds the static main, the untrusted one first, and
    main's class and method."""
    for image in (plan.untrusted_image, plan.trusted_image):
        for cls in image.classes if image else ():
            for m in cls.methods:
                if m.is_static and m.name == "main":
                    return image, cls, m
    raise InterfaceMismatch("plan has no main entry point")
