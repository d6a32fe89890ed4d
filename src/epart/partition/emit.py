"""Emit and reload partition plans.

Layout written to the output directory:
  trusted.img, untrusted.img   binary image files, magic EPIMG\\x01, canonical
                               length-prefixed AST encoding (little endian)
  interface.edl.txt            one line per surviving relay, sorted by
                               (direction, class, method), '#' header with the
                               tool version

Identical plans always produce byte-identical files.
"""

from __future__ import annotations

import struct
from pathlib import Path

from .._version import __version__
from ..dsl import ast
from ..dsl.ast import (
    Annotation, Assign, Binary, BoolLit, BuiltinCall, ClassDecl, Expr, ExprStmt,
    FieldDecl, FieldGet, If, IntLit, ListLit, MethodCall, MethodDecl, New, Param,
    Return, Stmt, StrLit, This, TypeRef, Unary, Var, VarDecl, Visibility, While,
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


class _Writer:
    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def bytes_out(self) -> bytes:
        return b"".join(self.parts)

    def u8(self, v: int) -> None:
        self.parts.append(struct.pack("<B", v))

    def u32(self, v: int) -> None:
        self.parts.append(struct.pack("<I", v))

    def i64(self, v: int) -> None:
        self.parts.append(struct.pack("<q", v))

    def s(self, v: str) -> None:
        data = v.encode("utf-8")
        self.u32(len(data))
        self.parts.append(data)

    def seq(self, items, fn) -> None:
        self.u32(len(items))
        for item in items:
            fn(item)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError("truncated image file")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def s(self) -> str:
        n = self.u32()
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"bad string in image: {e}") from e

    def seq(self, fn) -> list:
        return [fn() for _ in range(self.u32())]

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FormatError("trailing bytes in image file")


# -- type / expression / statement encoding -----------------------------------

def _w_type(w: _Writer, t: TypeRef) -> None:
    w.s(t.name)
    if t.elem is None:
        w.u8(0)
    else:
        w.u8(1)
        _w_type(w, t.elem)


def _r_type(r: _Reader) -> TypeRef:
    name = r.s()
    if r.u8():
        return TypeRef(name, _r_type(r))
    return TypeRef(name)


_EXPR_TAGS = [IntLit, BoolLit, StrLit, Var, This, FieldGet, Unary, Binary, New,
              MethodCall, BuiltinCall, ListLit]
_EXPR_TAG = {cls: i for i, cls in enumerate(_EXPR_TAGS)}


def _w_expr(w: _Writer, e: Expr) -> None:
    w.u8(_EXPR_TAG[type(e)])
    if isinstance(e, IntLit):
        w.i64(e.value)
    elif isinstance(e, BoolLit):
        w.u8(1 if e.value else 0)
    elif isinstance(e, StrLit):
        w.s(e.value)
    elif isinstance(e, Var):
        w.s(e.name)
    elif isinstance(e, This):
        pass
    elif isinstance(e, FieldGet):
        _w_expr(w, e.receiver)
        w.s(e.field_name)
    elif isinstance(e, Unary):
        w.s(e.op)
        _w_expr(w, e.operand)
    elif isinstance(e, Binary):
        w.s(e.op)
        _w_expr(w, e.left)
        _w_expr(w, e.right)
    elif isinstance(e, New):
        w.s(e.class_name)
        w.seq(e.args, lambda a: _w_expr(w, a))
    elif isinstance(e, MethodCall):
        _w_expr(w, e.receiver)
        w.s(e.method)
        w.seq(e.args, lambda a: _w_expr(w, a))
    elif isinstance(e, BuiltinCall):
        w.s(e.name)
        w.seq(e.args, lambda a: _w_expr(w, a))
    elif isinstance(e, ListLit):
        w.seq(e.elements, lambda a: _w_expr(w, a))
    else:
        raise TypeError(type(e).__name__)


def _r_expr(r: _Reader) -> Expr:
    tag = r.u8()
    if tag >= len(_EXPR_TAGS):
        raise FormatError(f"unknown expression tag {tag}")
    cls = _EXPR_TAGS[tag]
    if cls is IntLit:
        return IntLit(r.i64())
    if cls is BoolLit:
        return BoolLit(r.u8() == 1)
    if cls is StrLit:
        return StrLit(r.s())
    if cls is Var:
        return Var(r.s())
    if cls is This:
        return This()
    if cls is FieldGet:
        return FieldGet(_r_expr(r), r.s())
    if cls is Unary:
        return Unary(r.s(), _r_expr(r))
    if cls is Binary:
        return Binary(r.s(), _r_expr(r), _r_expr(r))
    if cls is New:
        return New(r.s(), r.seq(lambda: _r_expr(r)))
    if cls is MethodCall:
        return MethodCall(_r_expr(r), r.s(), r.seq(lambda: _r_expr(r)))
    if cls is BuiltinCall:
        return BuiltinCall(r.s(), r.seq(lambda: _r_expr(r)))
    if cls is ListLit:
        return ListLit(r.seq(lambda: _r_expr(r)))
    raise TypeError(cls.__name__)


_STMT_TAGS = [VarDecl, Assign, ExprStmt, Return, If, While]
_STMT_TAG = {cls: i for i, cls in enumerate(_STMT_TAGS)}


def _w_stmt(w: _Writer, s: Stmt) -> None:
    w.u8(_STMT_TAG[type(s)])
    if isinstance(s, VarDecl):
        w.s(s.name)
        if s.declared_type is None:
            w.u8(0)
        else:
            w.u8(1)
            _w_type(w, s.declared_type)
        _w_expr(w, s.init)
    elif isinstance(s, Assign):
        _w_expr(w, s.target)
        _w_expr(w, s.value)
    elif isinstance(s, ExprStmt):
        _w_expr(w, s.expr)
    elif isinstance(s, Return):
        if s.value is None:
            w.u8(0)
        else:
            w.u8(1)
            _w_expr(w, s.value)
    elif isinstance(s, If):
        _w_expr(w, s.cond)
        w.seq(s.then_body, lambda x: _w_stmt(w, x))
        w.seq(s.else_body, lambda x: _w_stmt(w, x))
    elif isinstance(s, While):
        _w_expr(w, s.cond)
        w.seq(s.body, lambda x: _w_stmt(w, x))
    else:
        raise TypeError(type(s).__name__)


def _r_stmt(r: _Reader) -> Stmt:
    tag = r.u8()
    if tag >= len(_STMT_TAGS):
        raise FormatError(f"unknown statement tag {tag}")
    cls = _STMT_TAGS[tag]
    if cls is VarDecl:
        name = r.s()
        declared = _r_type(r) if r.u8() else None
        return VarDecl(name, declared, _r_expr(r))
    if cls is Assign:
        target = _r_expr(r)
        if not isinstance(target, (Var, FieldGet)):
            raise FormatError("assignment target must be a variable or field")
        return Assign(target, _r_expr(r))
    if cls is ExprStmt:
        return ExprStmt(_r_expr(r))
    if cls is Return:
        return Return(_r_expr(r) if r.u8() else None)
    if cls is If:
        return If(_r_expr(r), r.seq(lambda: _r_stmt(r)), r.seq(lambda: _r_stmt(r)))
    if cls is While:
        return While(_r_expr(r), r.seq(lambda: _r_stmt(r)))
    raise TypeError(cls.__name__)


# -- declarations ---------------------------------------------------------------

def _w_method(w: _Writer, m: MethodDecl) -> None:
    w.s(m.name)
    w.seq(m.params, lambda p: (w.s(p.name), _w_type(w, p.type)))
    _w_type(w, m.return_type)
    w.u8((1 if m.is_constructor else 0) | (2 if m.is_static else 0))
    w.seq(m.body, lambda s: _w_stmt(w, s))


def _r_method(r: _Reader) -> MethodDecl:
    name = r.s()
    params = r.seq(lambda: Param(r.s(), _r_type(r)))
    ret = _r_type(r)
    flags = r.u8()
    body = r.seq(lambda: _r_stmt(r))
    return MethodDecl(name, params, ret, body,
                      is_constructor=bool(flags & 1), is_static=bool(flags & 2))


def _w_class(w: _Writer, c: ClassDecl) -> None:
    w.s(c.name)
    w.u8(_ANN_CODE[c.annotation])
    w.seq(c.fields, lambda f: (w.s(f.name), _w_type(w, f.type),
                               w.u8(0 if f.visibility == Visibility.PRIVATE else 1)))
    w.seq(c.methods, lambda m: _w_method(w, m))


def _r_class(r: _Reader) -> ClassDecl:
    name = r.s()
    ann = _ANN_FROM.get(r.u8())
    if ann is None:
        raise FormatError("unknown annotation code")
    fields = r.seq(lambda: FieldDecl(
        r.s(), _r_type(r),
        Visibility.PRIVATE if r.u8() == 0 else Visibility.PUBLIC))
    methods = r.seq(lambda: _r_method(r))
    return ClassDecl(name, ann, fields, methods)


def _w_proxy(w: _Writer, p: ProxyClassDef) -> None:
    w.s(p.class_name)
    w.s(p.direction)
    w.seq(p.stubs, lambda s: (
        w.s(s.name),
        w.seq(s.params, lambda pr: (w.s(pr[0]), _w_type(w, pr[1]))),
        _w_type(w, s.return_type),
        w.u8(1 if s.is_constructor else 0)))


_DIRECTIONS = {"ecall": "ecall", "ocall": "ocall"}
_KINDS = {k.value: k for k in MarshalKind}


def _r_enum(r: _Reader, values: dict, what: str):
    text = r.s()
    if text not in values:
        raise FormatError(f"bad {what} {text!r}")
    return values[text]


def _r_proxy(r: _Reader) -> ProxyClassDef:
    name = r.s()
    direction = _r_enum(r, _DIRECTIONS, "transition direction")

    def stub() -> StubMethod:
        sname = r.s()
        params = tuple(r.seq(lambda: (r.s(), _r_type(r))))
        ret = _r_type(r)
        return StubMethod(sname, params, ret, r.u8() == 1)

    return ProxyClassDef(name, direction, tuple(r.seq(stub)))


def _w_relay(w: _Writer, rel: RelayMethodDef) -> None:
    w.s(rel.class_name)
    w.s(rel.method_name)
    w.u8(1 if rel.is_constructor else 0)
    w.s(rel.direction)
    w.seq(rel.param_kinds, lambda k: w.s(k.value))
    w.s(rel.return_kind.value)


def _r_relay(r: _Reader) -> RelayMethodDef:
    cname = r.s()
    mname = r.s()
    is_ctor = r.u8() == 1
    direction = _r_enum(r, _DIRECTIONS, "transition direction")
    kinds = tuple(r.seq(lambda: _r_enum(r, _KINDS, "marshal kind")))
    ret = _r_enum(r, _KINDS, "marshal kind")
    return RelayMethodDef(cname, mname, is_ctor, direction, kinds, ret)


# -- whole images ---------------------------------------------------------------

def encode_image(plan: PartitionPlan, spec: ImageSpec) -> bytes:
    w = _Writer()
    w.parts.append(MAGIC)
    w.s(spec.side.value)
    w.s(__version__)
    names = sorted(plan.class_ids, key=lambda n: plan.class_ids[n])
    w.seq(names, w.s)
    w.seq(list(plan.annotations),
          lambda n: (w.s(n), w.u8(_ANN_CODE[plan.annotations[n]])))
    w.seq(spec.classes, lambda c: _w_class(w, c))
    w.seq(spec.proxies, lambda p: _w_proxy(w, p))
    w.seq(spec.relays, lambda rel: _w_relay(w, rel))
    w.seq(spec.entry_points, w.s)
    return w.bytes_out()


def decode_image(data: bytes) -> tuple[ImageSpec, dict[str, Annotation], dict[str, int], str]:
    if not data.startswith(MAGIC):
        raise FormatError("bad magic: not an image file or unsupported version")
    r = _Reader(data)
    r.take(len(MAGIC))
    side_text = r.s()
    try:
        side = Annotation(side_text)
    except ValueError as e:
        raise FormatError(f"bad image side {side_text!r}") from e
    version = r.s()
    names = r.seq(r.s)
    class_ids = {n: i for i, n in enumerate(names)}
    annotations: dict[str, Annotation] = {}
    for _ in range(r.u32()):
        n = r.s()
        code = r.u8()
        if code not in _ANN_FROM:
            raise FormatError("unknown annotation code")
        annotations[n] = _ANN_FROM[code]
    spec = ImageSpec(side)
    spec.classes = r.seq(lambda: _r_class(r))
    spec.proxies = r.seq(lambda: _r_proxy(r))
    spec.relays = r.seq(lambda: _r_relay(r))
    spec.entry_points = r.seq(r.s)
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
