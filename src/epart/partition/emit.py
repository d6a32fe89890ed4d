"""Emit and reload partition plans.

Layout written to the output directory:
  trusted.img, untrusted.img   binary image files, magic EPIMG\\x01, canonical
                               length-prefixed AST encoding (little endian)
  interface.edl.txt            one line per surviving relay, sorted by
                               (direction, class, method), '#' header with the
                               tool version

An expression or statement is its tag byte (its index in _EXPR_TAGS or
_STMT_TAGS), then its fields in dataclass order, each by the codec its type
annotation names in _FIELD_CODECS; positions are not stored.  The per-class
tables are built once from dataclasses.fields.  Declarations, proxies and
relays are written out by hand.

Identical plans always produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import struct
from pathlib import Path

from .._version import __version__
from ..dsl.ast import (
    BOOL, INT, STR, UNIT,
    Annotation, Assign, Binary, BoolLit, BuiltinCall, ClassDecl, ExprStmt,
    FieldDecl, FieldGet, If, IntLit, ListLit, MethodCall, MethodDecl, New, Param,
    Return, StrLit, This, TypeRef, Unary, Var, VarDecl, Visibility, While,
)
from ..errors import FormatError, InterfaceMismatch
from .model import MarshalKind, ProxyClassDef, RelayMethodDef, StubMethod
from .plan import ImageSpec, InterfaceDescriptor, InterfaceRecord, PartitionPlan

MAGIC = b"EPIMG\x01"

TRUSTED_IMG = "trusted.img"
UNTRUSTED_IMG = "untrusted.img"
INTERFACE_FILE = "interface.edl.txt"

_ANN_CODE = {Annotation.TRUSTED: 0, Annotation.UNTRUSTED: 1, Annotation.NEUTRAL: 2}
_ANN_FROM = {v: k for k, v in _ANN_CODE.items()}

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_TRUNCATED = "truncated image file"


class _Writer(bytearray):
    """The image being written.  Every writer function takes (w, value)."""

    u8 = bytearray.append

    def u32(self, v: int) -> None:
        self += _U32.pack(v)

    def i64(self, v: int) -> None:
        self += _I64.pack(v)

    def s(self, v: str) -> None:
        data = v.encode("utf-8")
        self += _U32.pack(len(data))
        self += data

    def seq(self, items, put) -> None:
        self += _U32.pack(len(items))
        for item in items:
            put(self, item)


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
        return _U32.unpack_from(self.data, pos)[0]

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
        stop = start + _U32.unpack_from(self.data, start - 4)[0]
        if stop > self.end:
            raise FormatError(_TRUNCATED)
        self.pos = stop
        try:
            return self.data[start:stop].decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"bad string in image: {e}") from e

    def seq(self, get) -> list:
        return [get(self) for _ in range(self.u32())]

    def done(self) -> None:
        if self.pos != self.end:
            raise FormatError("trailing bytes in image file")


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
    if r.u8():
        return TypeRef(name, _get_type(r))
    return _PRIMITIVE_TYPES.get(name) or TypeRef(name)


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


def _node_reader(cls, gets):
    """Reads the fields of cls in order and builds it.  One closure per
    arity: building an argument list per node would cost more."""
    if not gets:
        return lambda r: cls()
    if len(gets) == 1:
        (a,) = gets
        return lambda r: cls(a(r))
    if len(gets) == 2:
        a, b = gets
        return lambda r: cls(a(r), b(r))
    a, b, c = gets
    return lambda r: cls(a(r), b(r), c(r))


def _get_target(r: _Reader):
    target = _get_expr(r)
    if not isinstance(target, (Var, FieldGet)):
        raise FormatError("assignment target must be a variable or field")
    return target


def _optional(put, get):
    """A presence byte (0 or 1), then the value when present."""
    def put_optional(w: _Writer, v) -> None:
        if v is None:
            w.u8(0)
        else:
            w.u8(1)
            put(w, v)
    return put_optional, lambda r: get(r) if r.u8() else None


def _sequence(put, get):
    """A u32 count, then the items."""
    return (lambda w, items: w.seq(items, put)), (lambda r: r.seq(get))


# (writer, reader) by field type annotation.
_FIELD_CODECS = {
    "int": (_Writer.i64, _Reader.i64),
    "bool": (lambda w, v: w.u8(1 if v else 0), lambda r: r.u8() == 1),
    "str": (_Writer.s, _Reader.s),
    "Expr": (_put_node, _get_expr),
    "Union[Var, FieldGet]": (_put_node, _get_target),
    "Optional[Expr]": _optional(_put_node, _get_expr),
    "Optional[TypeRef]": _optional(_put_type, _get_type),
    "list[Expr]": _sequence(_put_node, _get_expr),
    "list[Stmt]": _sequence(_put_node, _get_stmt),
}


def _codecs(cls) -> list[tuple[str, tuple]]:
    """(name, (writer, reader)) of each stored field; line and col are not."""
    return [(f.name, _FIELD_CODECS[f.type])
            for f in dataclasses.fields(cls) if f.compare]


_NODE_PUT = {cls: (tag, [(name, put) for name, (put, _) in _codecs(cls)])
             for tags in (_EXPR_TAGS, _STMT_TAGS) for tag, cls in enumerate(tags)}
_EXPR_GET = [_node_reader(cls, [get for _, (_, get) in _codecs(cls)])
             for cls in _EXPR_TAGS]
_STMT_GET = [_node_reader(cls, [get for _, (_, get) in _codecs(cls)])
             for cls in _STMT_TAGS]


# -- declarations ---------------------------------------------------------------

def _put_param(w: _Writer, p: Param) -> None:
    w.s(p.name)
    _put_type(w, p.type)


def _put_method(w: _Writer, m: MethodDecl) -> None:
    w.s(m.name)
    w.seq(m.params, _put_param)
    _put_type(w, m.return_type)
    w.u8((1 if m.is_constructor else 0) | (2 if m.is_static else 0))
    w.seq(m.body, _put_node)


def _get_method(r: _Reader) -> MethodDecl:
    name = r.s()
    params = r.seq(lambda r: Param(r.s(), _get_type(r)))
    ret = _get_type(r)
    flags = r.u8()
    body = r.seq(_get_stmt)
    return MethodDecl(name, params, ret, body,
                      is_constructor=bool(flags & 1), is_static=bool(flags & 2))


def _put_field(w: _Writer, f: FieldDecl) -> None:
    w.s(f.name)
    _put_type(w, f.type)
    w.u8(0 if f.visibility == Visibility.PRIVATE else 1)


def _get_field(r: _Reader) -> FieldDecl:
    return FieldDecl(r.s(), _get_type(r),
                     Visibility.PRIVATE if r.u8() == 0 else Visibility.PUBLIC)


def _put_class(w: _Writer, c: ClassDecl) -> None:
    w.s(c.name)
    w.u8(_ANN_CODE[c.annotation])
    w.seq(c.fields, _put_field)
    w.seq(c.methods, _put_method)


def _get_class(r: _Reader) -> ClassDecl:
    name = r.s()
    ann = _ANN_FROM.get(r.u8())
    if ann is None:
        raise FormatError("unknown annotation code")
    return ClassDecl(name, ann, r.seq(_get_field), r.seq(_get_method))


def _put_stub(w: _Writer, s: StubMethod) -> None:
    w.s(s.name)
    w.seq(s.params, lambda w, p: (w.s(p[0]), _put_type(w, p[1])))
    _put_type(w, s.return_type)
    w.u8(1 if s.is_constructor else 0)


def _get_stub(r: _Reader) -> StubMethod:
    name = r.s()
    params = tuple(r.seq(lambda r: (r.s(), _get_type(r))))
    ret = _get_type(r)
    return StubMethod(name, params, ret, r.u8() == 1)


def _put_proxy(w: _Writer, p: ProxyClassDef) -> None:
    w.s(p.class_name)
    w.s(p.direction)
    w.seq(p.stubs, _put_stub)


_DIRECTIONS = {"ecall": "ecall", "ocall": "ocall"}
_KINDS = {k.value: k for k in MarshalKind}


def _get_enum(r: _Reader, values: dict, what: str):
    text = r.s()
    if text not in values:
        raise FormatError(f"bad {what} {text!r}")
    return values[text]


def _get_proxy(r: _Reader) -> ProxyClassDef:
    name = r.s()
    direction = _get_enum(r, _DIRECTIONS, "transition direction")
    return ProxyClassDef(name, direction, tuple(r.seq(_get_stub)))


def _put_relay(w: _Writer, rel: RelayMethodDef) -> None:
    w.s(rel.class_name)
    w.s(rel.method_name)
    w.u8(1 if rel.is_constructor else 0)
    w.s(rel.direction)
    w.seq(rel.param_kinds, lambda w, k: w.s(k.value))
    w.s(rel.return_kind.value)


def _get_relay(r: _Reader) -> RelayMethodDef:
    cname = r.s()
    mname = r.s()
    is_ctor = r.u8() == 1
    direction = _get_enum(r, _DIRECTIONS, "transition direction")
    kinds = tuple(r.seq(lambda r: _get_enum(r, _KINDS, "marshal kind")))
    ret = _get_enum(r, _KINDS, "marshal kind")
    return RelayMethodDef(cname, mname, is_ctor, direction, kinds, ret)


# -- whole images ---------------------------------------------------------------

def encode_image(plan: PartitionPlan, spec: ImageSpec) -> bytes:
    w = _Writer(MAGIC)
    w.s(spec.side.value)
    w.s(__version__)
    w.seq(sorted(plan.class_ids, key=plan.class_ids.__getitem__), _Writer.s)
    w.seq(list(plan.annotations.items()),
          lambda w, item: (w.s(item[0]), w.u8(_ANN_CODE[item[1]])))
    w.seq(spec.classes, _put_class)
    w.seq(spec.proxies, _put_proxy)
    w.seq(spec.relays, _put_relay)
    w.seq(spec.entry_points, _Writer.s)
    return bytes(w)


def decode_image(data: bytes) -> tuple[ImageSpec, dict[str, Annotation], dict[str, int], str]:
    if not data.startswith(MAGIC):
        raise FormatError("bad magic: not an image file or unsupported version")
    r = _Reader(data, len(MAGIC))
    side_text = r.s()
    try:
        side = Annotation(side_text)
    except ValueError as e:
        raise FormatError(f"bad image side {side_text!r}") from e
    version = r.s()
    names = r.seq(_Reader.s)
    class_ids = {n: i for i, n in enumerate(names)}
    annotations: dict[str, Annotation] = {}
    for _ in range(r.u32()):
        n = r.s()
        code = r.u8()
        if code not in _ANN_FROM:
            raise FormatError("unknown annotation code")
        annotations[n] = _ANN_FROM[code]
    spec = ImageSpec(side)
    spec.classes = r.seq(_get_class)
    spec.proxies = r.seq(_get_proxy)
    spec.relays = r.seq(_get_relay)
    spec.entry_points = r.seq(_Reader.s)
    r.done()
    return spec, annotations, class_ids, version


# -- interface descriptor ---------------------------------------------------------

def render_interface(descriptor: InterfaceDescriptor) -> str:
    lines = [f"# epart {__version__} interface"]
    lines += [rec.render() for rec in descriptor.records]
    return "\n".join(lines) + "\n"


def parse_interface(text: str) -> InterfaceDescriptor:
    records: list[InterfaceRecord] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            direction, rest = line.split(" ", 1)
            if direction not in ("ecall", "ocall"):
                raise ValueError(f"bad direction {direction!r}")
            target, ret = rest.split(" -> ")
            head, args = target.split("(", 1)
            if not args.endswith(")"):
                raise ValueError("missing ')'")
            cname, mname = head.split(".")
            kinds_text = args[:-1]
            kinds = tuple(MarshalKind(k) for k in kinds_text.split(",")) \
                if kinds_text else ()
            records.append(InterfaceRecord(direction, cname, mname, kinds,
                                           MarshalKind(ret.strip())))
        except ValueError as e:
            raise FormatError(f"bad interface record {line!r}: {e}") from e
    return InterfaceDescriptor(records)


# -- public API --------------------------------------------------------------------

def emit(plan: PartitionPlan, out_dir: str | Path) -> list[Path]:
    """Write trusted.img, untrusted.img and interface.edl.txt into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = [
        (out / TRUSTED_IMG, encode_image(plan, plan.trusted_image)),
        (out / UNTRUSTED_IMG, encode_image(plan, plan.untrusted_image)),
    ]
    for path, data in files:
        path.write_bytes(data)
    iface = out / INTERFACE_FILE
    iface.write_text(render_interface(plan.descriptor), encoding="utf-8")
    return [files[0][0], files[1][0], iface]


def load_plan(plan_dir: str | Path) -> PartitionPlan:
    """Reload an emitted plan, checking stub/descriptor consistency."""
    d = Path(plan_dir)
    for name in (TRUSTED_IMG, UNTRUSTED_IMG, INTERFACE_FILE):
        if not (d / name).exists():
            raise FileNotFoundError(f"missing {name} in {d}")
    trusted, ann_t, ids_t, _ = decode_image((d / TRUSTED_IMG).read_bytes())
    untrusted, ann_u, ids_u, _ = decode_image((d / UNTRUSTED_IMG).read_bytes())
    if trusted.side != Annotation.TRUSTED or untrusted.side != Annotation.UNTRUSTED:
        raise FormatError("image files have swapped or invalid sides")
    if ann_t != ann_u or ids_t != ids_u:
        raise FormatError("image files disagree on class tables")
    descriptor = parse_interface((d / INTERFACE_FILE).read_text(encoding="utf-8"))
    plan = PartitionPlan(trusted, untrusted, descriptor, ann_t, ids_t)
    check_interface(plan)
    return plan


def check_interface(plan: PartitionPlan) -> None:
    """Every proxy stub present in an image needs exactly one descriptor record."""
    recorded: dict[tuple[str, str], int] = {}
    for rec in plan.descriptor.records:
        key = (rec.class_name, rec.method_name)
        recorded[key] = recorded.get(key, 0) + 1
    for spec in (plan.trusted_image, plan.untrusted_image):
        for proxy in spec.proxies:
            for stub in proxy.stubs:
                count = recorded.get((proxy.class_name, stub.name), 0)
                if count != 1:
                    what = "no interface record" if count == 0 \
                        else f"{count} interface records"
                    raise InterfaceMismatch(
                        f"stub {proxy.class_name}.{stub.name} has {what}")
