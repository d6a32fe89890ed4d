"""Emit and reload partition plans.

Layout written to the output directory:
  trusted.img, untrusted.img   binary image files, magic EPIMG\\x02, canonical
                               length-prefixed AST encoding (little endian)
  interface.edl.txt            one line per surviving relay, sorted by
                               (direction, class, method), '#' header with the
                               tool version

The relays, the entry points and the interface are derived from the images'
proxies and the annotations (derive_interface), once check_interface has
checked each proxy stub against its method.  load_plan checks the interface
file against the one the derived relays render and does not parse it.  It
accepts only a plan written by this tool version: both images and the
interface header must record it.  image.py encodes and decodes the images.
"""

from __future__ import annotations

import errno
from pathlib import Path

from .._files import write_file
from .._version import __version__
from ..dsl.ast import BUILTIN_TYPE_NAMES, Annotation
from ..errors import FormatError, InterfaceMismatch
from .image import decode_image, encode_image
from .model import RelayMethodDef, relay_direction, stub_for
from .plan import ImageSpec, PartitionPlan, derive_interface

TRUSTED_IMG = "trusted.img"
UNTRUSTED_IMG = "untrusted.img"
INTERFACE_FILE = "interface.edl.txt"


# -- interface descriptor ---------------------------------------------------------

_INTERFACE_HEADER = f"# epart {__version__} interface"


def render_interface(descriptor: list[RelayMethodDef]) -> str:
    lines = [_INTERFACE_HEADER]
    lines += [rec.render() for rec in descriptor]
    return "\n".join(lines) + "\n"


# -- public API --------------------------------------------------------------------

def emit(plan: PartitionPlan, out_dir: str | Path) -> list[Path]:
    """Write trusted.img, untrusted.img and interface.edl.txt into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    images = [encode_image(plan, plan.trusted_image),
              encode_image(plan, plan.untrusted_image)]
    files = [out / TRUSTED_IMG, out / UNTRUSTED_IMG, out / INTERFACE_FILE]
    write_file(files[0], images[0])
    write_file(files[1], images[1])
    write_file(files[2], render_interface(plan.descriptor).encode("utf-8"))
    return files


def _read_plan_file(d: Path, name: str) -> bytes:
    try:
        return (d / name).read_bytes()
    except OSError as e:
        # No file there: no entry, a component not a directory, a link loop.
        if e.errno in (errno.ENOENT, errno.ENOTDIR, errno.ELOOP):
            raise FileNotFoundError(f"missing {name} in {d}") from None
        raise


def _load_image(name: str, data: bytes) -> tuple[ImageSpec, dict[str, Annotation]]:
    spec, annotations, version = decode_image(data)
    if version != __version__:
        raise FormatError(f"{name} was written by epart {version!r}, "
                          f"not {__version__}")
    return spec, annotations


def load_plan(plan_dir: str | Path) -> PartitionPlan:
    """Reload an emitted plan written by this tool version: check its images
    with check_interface, derive their relays and entry points, and check
    the interface file against the one the relays render.  All three files
    are read before any is decoded, so a missing file is reported before a
    corrupt one."""
    d = Path(plan_dir)
    t_data, u_data, i_data = (_read_plan_file(d, name) for name in
                              (TRUSTED_IMG, UNTRUSTED_IMG, INTERFACE_FILE))
    trusted, ann_t = _load_image(TRUSTED_IMG, t_data)
    untrusted, ann_u = _load_image(UNTRUSTED_IMG, u_data)
    if trusted.side != Annotation.TRUSTED or untrusted.side != Annotation.UNTRUSTED:
        raise FormatError("image files have swapped or invalid sides")
    if ann_t != ann_u:
        raise FormatError("image files disagree on annotation tables")
    plan = PartitionPlan(trusted, untrusted, ann_t)
    check_interface(plan)
    derive_interface(plan)
    try:
        text = i_data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{INTERFACE_FILE} is not UTF-8 text "
                          f"({e.reason} at byte {e.start})") from None
    # Universal newlines, as a text-mode read gives.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    header = text.partition("\n")[0]
    if header != _INTERFACE_HEADER:
        raise FormatError(f"{INTERFACE_FILE} header {header!r} is not "
                          f"{_INTERFACE_HEADER!r}")
    if text != render_interface(plan.descriptor):
        raise InterfaceMismatch(f"{INTERFACE_FILE} does not list the images' relays")
    return plan


def check_interface(plan: PartitionPlan) -> None:
    """Every class of an image has the annotation the plan's table gives it,
    and no @Trusted class is in the untrusted image.  Every proxy crosses in
    the direction its class's annotation gives and out of its own image,
    ecall from the untrusted image and ocall from the trusted one.  Each of
    its stubs is the stub_for of the method of that name that its class
    declares in the other image, and names only classes in the table, so the
    relays derive_interface makes of the stubs are those methods' relays.
    The trusted image may hold @Untrusted classes: the enclave baseline of
    whole_program_plan holds every class."""
    annotations = plan.annotations
    known = BUILTIN_TYPE_NAMES | annotations.keys()
    images = (plan.trusted_image, plan.untrusted_image)
    # per image: (class, method name) -> the first method of that name, the
    # one a call runs
    declared = [{(c.name, m.name): m for c in spec.classes
                 for m in reversed(c.methods)} for spec in images]
    for spec, far, far_methods in zip(images, reversed(images),
                                      reversed(declared)):
        side = spec.side.value.lower()
        for c in spec.classes:
            if annotations.get(c.name) != c.annotation:
                raise InterfaceMismatch(f"class {c.name} in the {side} image is "
                                        "not in the annotation table as declared")
        for proxy in spec.proxies:
            if proxy.direction != relay_direction(annotations.get(proxy.class_name)):
                raise InterfaceMismatch(f"proxy {proxy.class_name} is an "
                                        f"{proxy.direction} proxy, against its "
                                        "class's annotation")
            if proxy.direction != relay_direction(far.side):
                raise InterfaceMismatch(f"proxy {proxy.class_name} is an "
                                        f"{proxy.direction} proxy in the {side} "
                                        "image")
            for stub in proxy.stubs:
                method = far_methods.get((proxy.class_name, stub.name))
                if method is None or stub_for(method) != stub:
                    raise InterfaceMismatch(
                        f"stub {proxy.class_name}.{stub.name} in the {side} "
                        "image is not the signature of a method of the other "
                        "image")
                unknown = {stub.return_type.name,
                           *(t.name for _, t in stub.params)} - known
                if unknown:
                    raise InterfaceMismatch(
                        f"stub {proxy.class_name}.{stub.name} names class "
                        f"{min(unknown)}, which the annotation table lacks")
    # Which side holds what is checked once every name resolves, so that a
    # stub left without its method is named as such.
    for c in plan.untrusted_image.classes:
        if c.annotation == Annotation.TRUSTED:
            raise InterfaceMismatch(f"class {c.name} is @Trusted but in the "
                                    "untrusted image")
