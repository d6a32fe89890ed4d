"""Emit and reload partition plans.

Layout written to the output directory:
  trusted.img, untrusted.img   binary image files, magic EPIMG\\x01, canonical
                               length-prefixed AST encoding (little endian)
  interface.edl.txt            one line per surviving relay, sorted by
                               (direction, class, method), '#' header with the
                               tool version

The interface and the class-id table are derived from the images and the
annotations.  load_plan checks the stored copies against what it derives and
parses neither.  It accepts only a plan written by this tool version: both
images and the interface header must record it.

One schema: a record is its fields in dataclass order, each by the codec its
type annotation names in _FIELD_CODECS (positions are not stored); a node
first has its tag, its index in _EXPR_TAGS or _STMT_TAGS.  MethodDecl alone
is by hand: its two flags share one byte, between return type and body.

One encoding per value: a flag byte (a bool, or the presence of a list
element type or an optional value) is 0 or 1, a code byte names one of its
values, method flags are at most 3, an operator or builtin is one the
language has and a header table names a class once.
Anything else is a FormatError, so an image decodes and encodes back to the
same bytes.  Identical plans always produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import errno
import struct
from collections import Counter
from pathlib import Path

from .._files import write_file
from .._version import __version__
from ..dsl.ast import (
    BINARY_OPS, BOOL, BUILTINS, INT, STR, UNIT,
    Annotation, Assign, Binary, BoolLit, BuiltinCall, ClassDecl, ExprStmt,
    FieldDecl, FieldGet, If, IntLit, ListLit, MethodCall, MethodDecl, New, Param,
    Return, StrLit, This, TypeRef, Unary, Var, VarDecl, Visibility, While,
)
from ..errors import FormatError, InterfaceMismatch
from .model import (
    MarshalKind, ProxyClassDef, RelayMethodDef, StubMethod, relay_direction,
    relay_for,
)
from .plan import ImageSpec, PartitionPlan

MAGIC = b"EPIMG\x01"

TRUSTED_IMG = "trusted.img"
UNTRUSTED_IMG = "untrusted.img"
INTERFACE_FILE = "interface.edl.txt"

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_pack_u32, _unpack_u32 = _U32.pack, _U32.unpack_from  # bound once: run per string
_TRUNCATED = "truncated image file"


class _Writer(bytearray):
    """The image being written.  Every writer function takes (w, value)."""

    u8 = bytearray.append

    def i64(self, v: int) -> None:
        self += _I64.pack(v)

    def s(self, v: str) -> None:
        data = v.encode()
        self += _pack_u32(len(data))
        self += data


class _Reader:
    """Reads in place at an offset.  Every reader function takes (r)."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos
        self.end = len(data)

    def u8(self) -> int:
        pos = self.pos
        if pos >= self.end:
            raise FormatError(_TRUNCATED)
        self.pos = pos + 1
        return self.data[pos]

    def u32(self) -> int:
        pos = self.pos
        if pos + 4 > self.end:
            raise FormatError(_TRUNCATED)
        self.pos = pos + 4
        return _unpack_u32(self.data, pos)[0]

    def i64(self) -> int:
        pos = self.pos
        if pos + 8 > self.end:
            raise FormatError(_TRUNCATED)
        self.pos = pos + 8
        return _I64.unpack_from(self.data, pos)[0]

    def s(self) -> str:
        start = self.pos + 4
        if start > self.end:
            raise FormatError(_TRUNCATED)
        stop = start + _unpack_u32(self.data, start - 4)[0]
        if stop > self.end:
            raise FormatError(_TRUNCATED)
        self.pos = stop
        try:
            return self.data[start:stop].decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"bad string in image: {e}") from e


# -- types, expressions and statements -------------------------------------------

def _put_type(w: _Writer, t: TypeRef) -> None:
    w.s(t.name)
    if t.elem is None:
        w.u8(0)
    else:
        w.u8(1)
        _put_type(w, t.elem)


# TypeRef is frozen, so one instance serves every use of a primitive type and
# saves building one per parameter, field and return type.
_PRIMITIVE_TYPES = {t.name: t for t in (INT, BOOL, STR, UNIT)}


def _get_type(r: _Reader) -> TypeRef:
    name = r.s()
    flag = r.u8()
    if not flag:
        return _PRIMITIVE_TYPES.get(name) or TypeRef(name)
    if flag != 1:
        raise FormatError(f"bad flag byte {flag}")
    return TypeRef(name, _get_type(r))


_EXPR_TAGS = [IntLit, BoolLit, StrLit, Var, This, FieldGet, Unary, Binary, New,
              MethodCall, BuiltinCall, ListLit]
_STMT_TAGS = [VarDecl, Assign, ExprStmt, Return, If, While]


def _put_node(w: _Writer, node) -> None:
    tag, fields = _NODE_PUT[node.__class__]
    w.u8(tag)
    for name, put in fields:
        put(w, getattr(node, name))


def _get_expr(r: _Reader):
    tag = r.u8()
    if tag >= len(_EXPR_GET):
        raise FormatError(f"unknown expression tag {tag}")
    return _EXPR_GET[tag](r)


def _get_stmt(r: _Reader):
    tag = r.u8()
    if tag >= len(_STMT_GET):
        raise FormatError(f"unknown statement tag {tag}")
    return _STMT_GET[tag](r)


def _get_target(r: _Reader):
    target = _get_expr(r)
    if not isinstance(target, (Var, FieldGet)):
        raise FormatError("assignment target must be a variable or field")
    return target


def _optional(put, get):
    """A presence byte (0 or 1), then the value when present."""
    def put_optional(w: _Writer, v) -> None:
        w.u8(v is not None)
        if v is not None:
            put(w, v)

    def get_optional(r: _Reader):
        flag = r.u8()
        if flag > 1:
            raise FormatError(f"bad flag byte {flag}")
        return get(r) if flag else None
    return put_optional, get_optional


def _sequence(put, get, frozen=False):
    """A u32 count, then the items: a tuple when frozen, else a list."""
    def put_items(w: _Writer, items) -> None:
        w += _pack_u32(len(items))
        for item in items:
            put(w, item)

    def get_items(r: _Reader):
        items = [get(r) for _ in range(r.u32())]
        return tuple(items) if frozen else items
    return put_items, get_items


def _code(what: str, *values):
    """A u8: the value's index in values."""
    codes = {v: i for i, v in enumerate(values)}

    def get(r: _Reader):
        code = r.u8()
        if code >= len(values):
            raise FormatError(f"bad {what} byte {code}")
        return values[code]
    return (lambda w, v: w.u8(codes[v])), get


def _one_of(what: str, values: dict):
    """A string naming one of values (a dict by text; a MarshalKind is a str)."""
    def get(r: _Reader):
        text = r.s()
        value = values.get(text)
        if value is None:
            raise FormatError(f"bad {what} {text!r}")
        return value
    return _Writer.s, get


_DIRECTION = _one_of("transition direction", {"ecall": "ecall", "ocall": "ocall"})
_get_side = _one_of("image side", {a.value: a for a in Annotation})[1]
_MARSHAL_KIND = _one_of("marshal kind", {k.value: k for k in MarshalKind})

# (writer, reader) by field type annotation; a record joins after its fields.
_FIELD_CODECS = {
    "int": (_Writer.i64, _Reader.i64),
    "bool": _code("flag", False, True),
    "str": (_Writer.s, _Reader.s),
    "TypeRef": (_put_type, _get_type),
    "Annotation": _code("annotation",
                        Annotation.TRUSTED, Annotation.UNTRUSTED, Annotation.NEUTRAL),
    "Visibility": _code("visibility", Visibility.PRIVATE, Visibility.PUBLIC),
    "MarshalKind": _MARSHAL_KIND,
    "Expr": (_put_node, _get_expr),
    "Union[Var, FieldGet]": (_put_node, _get_target),
    "Optional[Expr]": _optional(_put_node, _get_expr),
    "Optional[TypeRef]": _optional(_put_type, _get_type),
    "list[Expr]": _sequence(_put_node, _get_expr),
    "list[Stmt]": _sequence(_put_node, _get_stmt),
    "tuple[MarshalKind, ...]": _sequence(*_MARSHAL_KIND, frozen=True),
    "tuple[tuple[str, TypeRef], ...]": _sequence(
        lambda w, p: (w.s(p[0]), _put_type(w, p[1])),
        lambda r: (r.s(), _get_type(r)), frozen=True),
}


def _reader(cls, gets):
    """Reads the fields of cls in order and builds it.  One closure per
    small arity: building an argument list per node would cost more."""
    if not gets:
        return lambda r: cls()
    if len(gets) == 1:
        (a,) = gets
        return lambda r: cls(a(r))
    if len(gets) == 2:
        a, b = gets
        return lambda r: cls(a(r), b(r))
    if len(gets) == 3:
        a, b, c = gets
        return lambda r: cls(a(r), b(r), c(r))
    if len(gets) == 4:
        a, b, c, d = gets
        return lambda r: cls(a(r), b(r), c(r), d(r))
    return lambda r: cls(*[get(r) for get in gets])


def _fields(cls, **overrides):
    """(name, writer) of each stored field of cls (pos is not), and
    a reader of them all.  A keyword names a field and the codec it uses."""
    stored = [f for f in dataclasses.fields(cls) if f.compare]
    codecs = [overrides.get(f.name) or _FIELD_CODECS[f.type] for f in stored]
    return ([(f.name, put) for f, (put, _) in zip(stored, codecs)],
            _reader(cls, [get for _, get in codecs]))


def _record(cls, **overrides):
    """(writer, reader) of an untagged record."""
    puts, get = _fields(cls, **overrides)

    def put_record(w: _Writer, value) -> None:
        for name, put in puts:
            put(w, getattr(value, name))
    return put_record, get


# Node fields that name an operator or a builtin: a decoded name is one the
# language has, so the interpreter never meets another.
_NAMES = {
    Unary: {"op": _one_of("unary operator", {"-": "-"})},
    Binary: {"op": _one_of("binary operator",
                           {op: op for ops in BINARY_OPS for op in ops})},
    BuiltinCall: {"name": _one_of("builtin", {name: name for name in BUILTINS})},
}
_NODE_PUT = {cls: (tag, _fields(cls)[0])
             for tags in (_EXPR_TAGS, _STMT_TAGS) for tag, cls in enumerate(tags)}
_EXPR_GET = [_fields(cls, **_NAMES.get(cls, {}))[1] for cls in _EXPR_TAGS]
_STMT_GET = [_fields(cls)[1] for cls in _STMT_TAGS]


# -- declarations, proxies and relays ---------------------------------------------

_put_params, _get_params = _FIELD_CODECS["list[Param]"] = _sequence(*_record(Param))
_FIELD_CODECS["list[FieldDecl]"] = _sequence(*_record(FieldDecl))
_put_body, _get_body = _FIELD_CODECS["list[Stmt]"]


def _put_method(w: _Writer, m: MethodDecl) -> None:
    """By hand: both flags share one byte, written before the body."""
    w.s(m.name)
    _put_params(w, m.params)
    _put_type(w, m.return_type)
    w.u8((1 if m.is_constructor else 0) | (2 if m.is_static else 0))
    _put_body(w, m.body)


def _get_method(r: _Reader) -> MethodDecl:
    name, params, ret, flags = r.s(), _get_params(r), _get_type(r), r.u8()
    if flags > 3:
        raise FormatError(f"bad method flags byte {flags}")
    return MethodDecl(name, params, ret, _get_body(r),
                      is_constructor=bool(flags & 1), is_static=bool(flags & 2))


_FIELD_CODECS["list[MethodDecl]"] = _sequence(_put_method, _get_method)
_FIELD_CODECS["tuple[StubMethod, ...]"] = _sequence(*_record(StubMethod), frozen=True)
_STRINGS = _put_strings, _get_strings = _sequence(_Writer.s, _Reader.s)
_IMAGE_PARTS = [
    ("classes", _sequence(*_record(ClassDecl))),
    ("proxies", _sequence(*_record(ProxyClassDef, direction=_DIRECTION))),
    ("relays", _sequence(*_record(RelayMethodDef, direction=_DIRECTION))),
    ("entry_points", _STRINGS),
]
_put_ann, _get_ann = _FIELD_CODECS["Annotation"]
_put_anns, _get_anns = _sequence(lambda w, item: (w.s(item[0]), _put_ann(w, item[1])),
                                 lambda r: (r.s(), _get_ann(r)))


# -- whole images ---------------------------------------------------------------

def encode_image(plan: PartitionPlan, spec: ImageSpec) -> bytes:
    w = _Writer(MAGIC)
    w.s(spec.side.value)
    w.s(__version__)
    _put_strings(w, sorted(plan.annotations))  # the class-id table
    _put_anns(w, list(plan.annotations.items()))
    for name, (put, _) in _IMAGE_PARTS:
        put(w, getattr(spec, name))
    return bytes(w)


def decode_image(data: bytes) -> tuple[ImageSpec, dict[str, Annotation], str]:
    if not data.startswith(MAGIC):
        raise FormatError("bad magic: not an image file or unsupported version")
    r = _Reader(data, len(MAGIC))
    side, version = _get_side(r), r.s()
    names = _get_strings(r)
    annotations = dict(pairs := _get_anns(r))
    if len(set(names)) != len(names) or len(annotations) != len(pairs):
        raise FormatError("a class name appears twice in an image table")
    if names != sorted(annotations):
        raise FormatError("the class table does not list the annotated classes "
                          "in sorted order")
    spec = ImageSpec(side)  # everything after the header, in dataclass order
    for name, (_, get) in _IMAGE_PARTS:
        setattr(spec, name, get(r))
    if r.pos != r.end:
        raise FormatError("trailing bytes in image file")
    return spec, annotations, version


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
    """Reload an emitted plan written by this tool version, checking its
    images with check_interface and its interface file against the one they
    render.  All three files are read before any is decoded, so a missing
    file is reported before a corrupt one."""
    d = Path(plan_dir)
    t_data, u_data, i_data = (_read_plan_file(d, name) for name in
                              (TRUSTED_IMG, UNTRUSTED_IMG, INTERFACE_FILE))
    trusted, ann_t = _load_image(TRUSTED_IMG, t_data)
    untrusted, ann_u = _load_image(UNTRUSTED_IMG, u_data)
    if trusted.side != Annotation.TRUSTED or untrusted.side != Annotation.UNTRUSTED:
        raise FormatError("image files have swapped or invalid sides")
    if ann_t != ann_u:
        raise FormatError("image files disagree on class tables")
    plan = PartitionPlan(trusted, untrusted, ann_t)
    check_interface(plan)
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
    and no @Trusted class is in the untrusted image.  Every relay is a
    method of a class of its own image and is entered in that image's own
    direction, ecall into the trusted image and ocall into the untrusted one.
    Every proxy stub has exactly one relay in the other image; relays and
    proxies cross in the direction their class's annotation gives.  Each
    relay is the one relay_for makes of its method.  The trusted image may
    hold @Untrusted classes: the enclave baseline of whole_program_plan
    holds every class."""
    annotations = plan.annotations
    images = (plan.trusted_image, plan.untrusted_image)
    # per image: (class, method name) -> the class and the first method of
    # that name, the one a call runs
    declared = [{(c.name, m.name): (c, m) for c in spec.classes
                 for m in reversed(c.methods)} for spec in images]
    for spec, far, methods in zip(images, reversed(images), declared):
        side = spec.side.value.lower()
        for c in spec.classes:
            if annotations.get(c.name) != c.annotation:
                raise InterfaceMismatch(f"class {c.name} in the {side} image is "
                                        "not in the annotation table as declared")
        for rel in spec.relays:
            if (rel.class_name, rel.method_name) not in methods:
                raise InterfaceMismatch(f"relay {rel.relay_id} has no method "
                                        f"in the {side} image")
            if rel.direction != relay_direction(annotations.get(rel.class_name)):
                raise InterfaceMismatch(f"relay {rel.relay_id} is an {rel.direction}, "
                                        "against its class's annotation")
        relays = Counter((rel.class_name, rel.method_name) for rel in far.relays)
        for proxy in spec.proxies:
            if proxy.direction != relay_direction(annotations.get(proxy.class_name)):
                raise InterfaceMismatch(f"proxy {proxy.class_name} is an "
                                        f"{proxy.direction} proxy, against its "
                                        "class's annotation")
            for stub in proxy.stubs:
                count = relays[(proxy.class_name, stub.name)]
                if count != 1:
                    what = "no relay" if count == 0 else f"{count} relays"
                    raise InterfaceMismatch(
                        f"stub {proxy.class_name}.{stub.name} in the {side} "
                        f"image has {what} in the other image")
    # Which side holds what is checked once every name resolves, so that a
    # stub left without its relay is named as such.
    for c in plan.untrusted_image.classes:
        if c.annotation == Annotation.TRUSTED:
            raise InterfaceMismatch(f"class {c.name} is @Trusted but in the "
                                    "untrusted image")
    for spec, methods in zip(images, declared):
        for rel in spec.relays:
            if rel.direction != relay_direction(spec.side):
                raise InterfaceMismatch(f"relay {rel.relay_id} is an {rel.direction} "
                                        f"in the {spec.side.value.lower()} image")
            try:
                made = relay_for(*methods[rel.class_name, rel.method_name],
                                 annotations)
            except KeyError:  # a signature names a class the table lacks
                made = None
            if rel != made:
                raise InterfaceMismatch(f"relay {rel.relay_id} is not the relay "
                                        "its method's signature makes")
