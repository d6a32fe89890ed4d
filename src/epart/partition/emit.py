"""Emit and reload partition plans.

Layout written to the output directory:
  trusted.img, untrusted.img   binary image files, magic EPIMG\\x04: a table
                               of the image's distinct strings, then a
                               canonical AST encoding (little endian) that
                               names each string by its index there
  interface.edl.txt            one line per surviving relay, sorted by
                               (direction, class, method), '#' header with the
                               tool version

The relays and the interface are derived from the images' proxies and the
annotations by derive_interface, which checks each proxy stub against its
method first.  load_plan checks the interface file against the one the
derived relays render and does not parse it.  It accepts only a plan written
by this tool version: both images and the interface header must record it.
image.py encodes and decodes the images: decode_image(data) reads an image's
string table once, then its body, and returns (spec, annotations, version).
An image cut short, a table entry that is not UTF-8 and a string table that
is not canonical (an index past it, an entry repeated, unused or out of the
order of first use) are each one FormatError; image.py says how each is
found.
"""

from __future__ import annotations

import errno
from pathlib import Path

from .._files import write_file
from .._version import __version__
from ..dsl.ast import Annotation
from ..errors import FormatError, InterfaceMismatch
from .image import decode_image, encode_image
from .model import RelayMethodDef
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
    """Reload an emitted plan written by this tool version.  Each class has
    its table annotation, the stubs pass derive_interface, no @Trusted class
    is in the untrusted image (the trusted one may hold @Untrusted classes,
    as whole_program_plan's enclave baseline does), and the interface file
    is the one the relays render.  All three files are read before any is
    decoded, so a missing file is reported before a corrupt one."""
    d = Path(plan_dir)
    t_data, u_data, i_data = (_read_plan_file(d, name) for name in
                              (TRUSTED_IMG, UNTRUSTED_IMG, INTERFACE_FILE))
    trusted, ann_t = _load_image(TRUSTED_IMG, t_data)
    untrusted, ann_u = _load_image(UNTRUSTED_IMG, u_data)
    if trusted.side != Annotation.TRUSTED or untrusted.side != Annotation.UNTRUSTED:
        raise FormatError("image files have swapped or invalid sides")
    if ann_t != ann_u:
        raise FormatError("image files disagree on annotation tables")
    for spec in (trusted, untrusted):
        for c in spec.classes:
            if ann_t.get(c.name) != c.annotation:
                raise InterfaceMismatch(
                    f"class {c.name} in the {spec.side.value.lower()} image "
                    "is not in the annotation table as declared")
    plan = derive_interface(PartitionPlan(trusted, untrusted, ann_t))
    # Which side holds what is checked once every stub resolves, so that a
    # stub left without its method is named as such.
    for c in untrusted.classes:
        if c.annotation == Annotation.TRUSTED:
            raise InterfaceMismatch(f"class {c.name} is @Trusted but in the "
                                    "untrusted image")
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
