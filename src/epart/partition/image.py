"""The image codec: an ImageSpec and its plan's header as image bytes.

An image is the magic EPIMG\\x03, then a canonical length-prefixed AST
encoding (little endian): the side, the tool version, the annotations, then
the image's classes and proxies.  A proxy is a class record too: its
class's name and annotation, no fields, and its stubs as methods with empty
bodies, so one reader decodes both.  Nothing else is stored: the relays are
derive_interface's (plan.py), the wire's class ids are PartitionPlan's, so
an image holds no second copy of a fact to check.

The layout is written down twice.  The writer is generated: a record is its
fields in dataclass order, each by the writer its type annotation names in
_FIELD_PUT (positions are not stored); a node first has its tag, its index
in _EXPR_TAGS or _STMT_TAGS.  MethodDecl alone is by hand: its two flags
share one byte, between return type and body.  The readers are written out
by hand, one per record, so each _get_* and node reader must follow its
dataclass's field order: a field added to a node changes the writer at
once and its reader only when edited.  The roundtrip test in
tests/test_partition.py, test_images_decode_to_the_plan_and_encode_back,
is the guard that keeps the two in step.

A reader is get(data, pos) -> (value, pos) over the image bytes.  It reads tag, flag and
code bytes as data[pos], counts and integers by unpack_from, and strings by
_get_str.  A statement or expression sequence dispatches on each tag in its
own loop, and a left-deep operator chain is read in one loop, so only a
nested block or a nested right operand costs a level of recursion.
Truncation is found by the read that runs out of bytes: its IndexError or
struct.error (a string read checks its own end, as a slice would only come
out short), which decode_image turns into the one FormatError "truncated
image file".  Invalid UTF-8 in a string is the decode's UnicodeDecodeError,
which it turns into "bad string in image".

One encoding per value: a flag byte (a bool, or the presence of a list
element type or an optional value) is 0 or 1, a code byte names one of its
values, method flags are at most 3, a method is flagged a constructor
exactly when it is named as its class, an operator or builtin is one the
language has and the annotation table names a class once.
Anything else is a FormatError, so an image decodes and encodes back to the
same bytes.  Identical plans always produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import struct

from .._version import __version__
from ..dsl.ast import (
    BINARY_OPS, BOOL, BUILTINS, INT, STR, UNIT,
    Annotation, Assign, Binary, BoolLit, BuiltinCall, ClassDecl, ExprStmt,
    FieldDecl, FieldGet, If, IntLit, ListLit, MethodCall, MethodDecl, New, Param,
    Return, StrLit, This, TypeRef, Unary, Var, VarDecl, Visibility, While,
)
from ..errors import FormatError
from .plan import ImageSpec, PartitionPlan

MAGIC = b"EPIMG\x03"

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
# Bound once: run per string, count and integer.
_pack_u32, _u32, _i64 = _U32.pack, _U32.unpack_from, _I64.unpack_from


class _Writer(bytearray):
    """The image being written.  Every writer function takes (w, value)."""

    u8 = bytearray.append

    def i64(self, v: int) -> None:
        self += _I64.pack(v)

    def s(self, v: str) -> None:
        data = v.encode()
        self += _pack_u32(len(data))
        self += data


# -- writing: one schema ------------------------------------------------------------

def _put_type(w: _Writer, t: TypeRef) -> None:
    w.s(t.name)
    if t.elem is None:
        w.u8(0)
    else:
        w.u8(1)
        _put_type(w, t.elem)


_EXPR_TAGS = [IntLit, BoolLit, StrLit, Var, This, FieldGet, Unary, Binary, New,
              MethodCall, BuiltinCall, ListLit]
_STMT_TAGS = [VarDecl, Assign, ExprStmt, Return, If, While]


def _put_node(w: _Writer, node) -> None:
    tag, fields = _NODE_PUT[node.__class__]
    w.u8(tag)
    for name, put in fields:
        put(w, getattr(node, name))


def _optional(put):
    """A presence byte (0 or 1), then the value when present."""
    def put_optional(w: _Writer, v) -> None:
        w.u8(v is not None)
        if v is not None:
            put(w, v)
    return put_optional


def _sequence(put):
    """A u32 count, then the items."""
    def put_items(w: _Writer, items) -> None:
        w += _pack_u32(len(items))
        for item in items:
            put(w, item)
    return put_items


def _code(*values):
    """A u8: the value's index in values."""
    codes = {v: i for i, v in enumerate(values)}
    return lambda w, v: w.u8(codes[v])


_ANNOTATIONS = (Annotation.TRUSTED, Annotation.UNTRUSTED, Annotation.NEUTRAL)
_VISIBILITIES = (Visibility.PRIVATE, Visibility.PUBLIC)

# The writer of each field type annotation; a record joins after its fields.
_FIELD_PUT = {
    "int": _Writer.i64,
    "bool": _code(False, True),
    "str": _Writer.s,
    "TypeRef": _put_type,
    "Annotation": _code(*_ANNOTATIONS),
    "Visibility": _code(*_VISIBILITIES),
    "Expr": _put_node,
    "Union[Var, FieldGet]": _put_node,
    "Optional[Expr]": _optional(_put_node),
    "Optional[TypeRef]": _optional(_put_type),
    "list[Expr]": _sequence(_put_node),
    "list[Stmt]": _sequence(_put_node),
}


def _fields(cls):
    """(name, writer) of each stored field of cls (pos is not)."""
    return [(f.name, _FIELD_PUT[f.type])
            for f in dataclasses.fields(cls) if f.compare]


def _record(cls):
    """The writer of an untagged record."""
    puts = _fields(cls)

    def put_record(w: _Writer, value) -> None:
        for name, put in puts:
            put(w, getattr(value, name))
    return put_record


_NODE_PUT = {cls: (tag, _fields(cls))
             for tags in (_EXPR_TAGS, _STMT_TAGS) for tag, cls in enumerate(tags)}
_put_params = _FIELD_PUT["list[Param]"] = _sequence(_record(Param))
_FIELD_PUT["list[FieldDecl]"] = _sequence(_record(FieldDecl))
_put_body = _FIELD_PUT["list[Stmt]"]


def _put_method(w: _Writer, m: MethodDecl) -> None:
    """By hand: both flags share one byte, written before the body."""
    w.s(m.name)
    _put_params(w, m.params)
    _put_type(w, m.return_type)
    w.u8((1 if m.is_constructor else 0) | (2 if m.is_static else 0))
    _put_body(w, m.body)


_FIELD_PUT["list[MethodDecl]"] = _sequence(_put_method)
_put_ann = _FIELD_PUT["Annotation"]
_put_anns = _sequence(lambda w, item: (w.s(item[0]), _put_ann(w, item[1])))
_put_classes = _sequence(_record(ClassDecl))


# -- reading: one function per record -----------------------------------------------
#
# A node reader, named after its node, starts after the tag: the caller
# indexes _EXPR_GET or _STMT_GET by the tag byte, and the entries past the
# known tags raise.

def _get_str(data: bytes, pos: int) -> tuple[str, int]:
    start = pos + 4
    stop = start + _u32(data, pos)[0]
    if stop > len(data):  # a slice past the end would just be shorter
        raise IndexError(stop)
    return data[start:stop].decode(), stop


def _get_name(data: bytes, pos: int, values: dict, what: str):
    """A string naming one of values (a dict by text)."""
    text, pos = _get_str(data, pos)
    value = values.get(text)
    if value is None:
        raise FormatError(f"bad {what} {text!r}")
    return value, pos


def _bad_flag(flag: int) -> FormatError:
    return FormatError(f"bad flag byte {flag}")


# TypeRef is frozen, so one instance serves every use of a primitive type and
# saves building one per parameter, field and return type.
_PRIMITIVE_TYPES = {t.name: t for t in (INT, BOOL, STR, UNIT)}


def _get_type(data: bytes, pos: int) -> tuple[TypeRef, int]:
    name, pos = _get_str(data, pos)
    flag = data[pos]
    if not flag:
        return _PRIMITIVE_TYPES.get(name) or TypeRef(name), pos + 1
    if flag != 1:
        raise _bad_flag(flag)
    elem, pos = _get_type(data, pos + 1)
    return TypeRef(name, elem), pos


def _get_items(data: bytes, pos: int, get) -> tuple[list, int]:
    """A u32 count, then that many records read by get."""
    count = _u32(data, pos)[0]
    pos += 4
    items = []
    for _ in range(count):
        item, pos = get(data, pos)
        items.append(item)
    return items, pos


# Names a node may hold: a decoded name is one the language has, so the
# interpreter never meets another.
_UNARY_OPS = {"-": "-"}
_BINARY_OPS = {op: op for ops in BINARY_OPS for op in ops}
_BUILTINS = {name: name for name in BUILTINS}
_BINARY_TAG = _EXPR_TAGS.index(Binary)


def _get_exprs(data: bytes, pos: int) -> tuple[list, int]:
    count = _u32(data, pos)[0]
    pos += 4
    items = []
    for _ in range(count):
        item, pos = _EXPR_GET[data[pos]](data, pos + 1)
        items.append(item)
    return items, pos


def _get_body(data: bytes, pos: int) -> tuple[list, int]:
    count = _u32(data, pos)[0]
    pos += 4
    body = []
    for _ in range(count):
        stmt, pos = _STMT_GET[data[pos]](data, pos + 1)
        body.append(stmt)
    return body, pos


def _int_lit(data, pos):
    return IntLit(_i64(data, pos)[0]), pos + 8


def _bool_lit(data, pos):
    flag = data[pos]
    if flag > 1:
        raise _bad_flag(flag)
    return BoolLit(flag == 1), pos + 1


def _str_lit(data, pos):
    value, pos = _get_str(data, pos)
    return StrLit(value), pos


def _var(data, pos):
    name, pos = _get_str(data, pos)
    return Var(name), pos


def _this(data, pos):
    return This(), pos


def _field_get(data, pos):
    receiver, pos = _EXPR_GET[data[pos]](data, pos + 1)
    name, pos = _get_str(data, pos)
    return FieldGet(receiver, name), pos


def _unary(data, pos):
    op, pos = _get_name(data, pos, _UNARY_OPS, "unary operator")
    operand, pos = _EXPR_GET[data[pos]](data, pos + 1)
    return Unary(op, operand), pos


def _binary(data, pos):
    """A left-deep chain in one loop, so its length costs no recursion.  The
    bytes are read in order: each operator, outermost first, while the left
    operand is again a Binary, then the leftmost operand, then the right
    operands innermost first."""
    ops = []
    while True:
        op, pos = _get_name(data, pos, _BINARY_OPS, "binary operator")
        ops.append(op)
        if data[pos] != _BINARY_TAG:
            break
        pos += 1
    left, pos = _EXPR_GET[data[pos]](data, pos + 1)
    for op in reversed(ops):
        right, pos = _EXPR_GET[data[pos]](data, pos + 1)
        left = Binary(op, left, right)
    return left, pos


def _new(data, pos):
    name, pos = _get_str(data, pos)
    args, pos = _get_exprs(data, pos)
    return New(name, args), pos


def _method_call(data, pos):
    receiver, pos = _EXPR_GET[data[pos]](data, pos + 1)
    name, pos = _get_str(data, pos)
    args, pos = _get_exprs(data, pos)
    return MethodCall(receiver, name, args), pos


def _builtin_call(data, pos):
    name, pos = _get_name(data, pos, _BUILTINS, "builtin")
    args, pos = _get_exprs(data, pos)
    return BuiltinCall(name, args), pos


def _list_lit(data, pos):
    elements, pos = _get_exprs(data, pos)
    return ListLit(elements), pos


def _unknown_expr(data, pos):
    raise FormatError(f"unknown expression tag {data[pos - 1]}")


def _var_decl(data, pos):
    name, pos = _get_str(data, pos)
    flag = data[pos]
    if flag > 1:
        raise _bad_flag(flag)
    declared, pos = None, pos + 1
    if flag:
        declared, pos = _get_type(data, pos)
    init, pos = _EXPR_GET[data[pos]](data, pos + 1)
    return VarDecl(name, declared, init), pos


def _assign(data, pos):
    target, pos = _EXPR_GET[data[pos]](data, pos + 1)
    if not isinstance(target, (Var, FieldGet)):
        raise FormatError("assignment target must be a variable or field")
    value, pos = _EXPR_GET[data[pos]](data, pos + 1)
    return Assign(target, value), pos


def _expr_stmt(data, pos):
    expr, pos = _EXPR_GET[data[pos]](data, pos + 1)
    return ExprStmt(expr), pos


def _return(data, pos):
    flag = data[pos]
    if flag > 1:
        raise _bad_flag(flag)
    if not flag:
        return Return(), pos + 1
    value, pos = _EXPR_GET[data[pos + 1]](data, pos + 2)
    return Return(value), pos


def _if(data, pos):
    cond, pos = _EXPR_GET[data[pos]](data, pos + 1)
    then_body, pos = _get_body(data, pos)
    else_body, pos = _get_body(data, pos)
    return If(cond, then_body, else_body), pos


def _while(data, pos):
    cond, pos = _EXPR_GET[data[pos]](data, pos + 1)
    body, pos = _get_body(data, pos)
    return While(cond, body), pos


def _unknown_stmt(data, pos):
    raise FormatError(f"unknown statement tag {data[pos - 1]}")


def _tag_table(tags: list, readers: dict, unknown) -> list:
    """The reader of each tag byte, in tag order, and unknown for the rest."""
    return [readers[cls] for cls in tags] + [unknown] * (256 - len(tags))


_EXPR_GET = _tag_table(_EXPR_TAGS, {
    IntLit: _int_lit, BoolLit: _bool_lit, StrLit: _str_lit, Var: _var,
    This: _this, FieldGet: _field_get, Unary: _unary, Binary: _binary,
    New: _new, MethodCall: _method_call, BuiltinCall: _builtin_call,
    ListLit: _list_lit}, _unknown_expr)
_STMT_GET = _tag_table(_STMT_TAGS, {
    VarDecl: _var_decl, Assign: _assign, ExprStmt: _expr_stmt,
    Return: _return, If: _if, While: _while}, _unknown_stmt)


# -- declarations ------------------------------------------------------------------

def _get_param(data: bytes, pos: int) -> tuple[Param, int]:
    name, pos = _get_str(data, pos)
    t, pos = _get_type(data, pos)
    return Param(name, t), pos


def _get_field(data: bytes, pos: int) -> tuple[FieldDecl, int]:
    name, pos = _get_str(data, pos)
    t, pos = _get_type(data, pos)
    code = data[pos]
    if code > 1:
        raise FormatError(f"bad visibility byte {code}")
    return FieldDecl(name, t, _VISIBILITIES[code]), pos + 1


def _get_method(data: bytes, pos: int) -> tuple[MethodDecl, int]:
    name, pos = _get_str(data, pos)
    params, pos = _get_items(data, pos, _get_param)
    ret, pos = _get_type(data, pos)
    flags = data[pos]
    if flags > 3:
        raise FormatError(f"bad method flags byte {flags}")
    body, pos = _get_body(data, pos + 1)
    return MethodDecl(name, params, ret, body, is_constructor=bool(flags & 1),
                      is_static=bool(flags & 2)), pos


def _get_annotation(data: bytes, pos: int) -> tuple[Annotation, int]:
    code = data[pos]
    if code > 2:
        raise FormatError(f"bad annotation byte {code}")
    return _ANNOTATIONS[code], pos + 1


def _get_class(data: bytes, pos: int) -> tuple[ClassDecl, int]:
    name, pos = _get_str(data, pos)
    annotation, pos = _get_annotation(data, pos)
    fields, pos = _get_items(data, pos, _get_field)
    methods, pos = _get_items(data, pos, _get_method)
    for m in methods:  # the parser's rule: a constructor is named as its class
        if m.is_constructor != (m.name == name):
            raise FormatError(f"the constructor flag of {name}.{m.name} "
                              "disagrees with its name")
    return ClassDecl(name, annotation, fields, methods), pos


_SIDES = {a.value: a for a in Annotation}


def _get_annotated(data: bytes, pos: int) -> tuple[tuple[str, Annotation], int]:
    name, pos = _get_str(data, pos)
    annotation, pos = _get_annotation(data, pos)
    return (name, annotation), pos


def _get_image(data: bytes, pos: int):
    """The header, checked, then the image: (spec, annotations, version, the
    offset after it)."""
    side, pos = _get_name(data, pos, _SIDES, "image side")
    version, pos = _get_str(data, pos)
    pairs, pos = _get_items(data, pos, _get_annotated)
    annotations = dict(pairs)
    if len(annotations) != len(pairs):
        raise FormatError("a class name appears twice in the annotation table")
    classes, pos = _get_items(data, pos, _get_class)
    proxies, pos = _get_items(data, pos, _get_class)
    return ImageSpec(side, classes, proxies), annotations, version, pos


# -- whole images ---------------------------------------------------------------

def encode_image(plan: PartitionPlan, spec: ImageSpec) -> bytes:
    w = _Writer(MAGIC)
    w.s(spec.side.value)
    w.s(__version__)
    _put_anns(w, list(plan.annotations.items()))
    _put_classes(w, spec.classes)
    _put_classes(w, spec.proxies)
    return bytes(w)


def decode_image(data: bytes) -> tuple[ImageSpec, dict[str, Annotation], str]:
    if not data.startswith(MAGIC):
        raise FormatError("bad magic: not an image file or unsupported version")
    try:
        spec, annotations, version, pos = _get_image(data, len(MAGIC))
    except (IndexError, struct.error):
        raise FormatError("truncated image file") from None
    except UnicodeDecodeError as e:
        raise FormatError(f"bad string in image: {e}") from e
    if pos != len(data):
        raise FormatError("trailing bytes in image file")
    return spec, annotations, version
