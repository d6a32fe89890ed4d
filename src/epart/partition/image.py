"""The image codec: an ImageSpec and its plan's header as image bytes.

An image is the magic EPIMG\\x04, its string table, then a canonical AST
encoding (little endian): the side, the tool version, the annotations, then
the image's classes and proxies.  The string table is a u32 count, then each
entry as a u32 length and its UTF-8 bytes.  Every string the body holds (a
name, a type, an operator, a builtin, a StrLit value, the side and the
version) is a u32 index into it, so each distinct string is stored and
decoded once, as in a class file's constant pool.  A proxy is a class record
too: its class's name and annotation, no fields, and its stubs as methods
with empty bodies, so one reader decodes both.  Nothing else is stored: the
relays are derive_interface's (plan.py), the wire's class ids are
PartitionPlan's, so an image holds no second copy of a fact to check.

The layout is written down twice.  The writer is generated: a record is its
fields in dataclass order, each by the writer its type annotation names in
_FIELD_PUT (positions are not stored); a node first has its tag, its index
in _EXPR_TAGS or _STMT_TAGS.  A string is written in place as
w.strings[text], whose first use of a text gives it the next index and
appends its table entry.  MethodDecl alone is by hand: its two flags share
one byte, between return type and body.  The readers are written out by
hand, one per record, so each _get_* and node reader must follow its
dataclass's field order: a field added to a node changes the writer at once
and its reader only when edited.  The roundtrip test in
tests/test_partition.py, test_images_decode_to_the_plan_and_encode_back, is
the guard that keeps the two in step.

A reader is get(data, pos, t) -> (value, pos) over the image bytes and its
string table t.  It reads tag, flag and code bytes as data[pos], counts and
integers by unpack_from, and a string in place as t[_u32(data, pos)[0]].  A
statement or expression sequence dispatches on each tag in its own loop, and
a left-deep operator chain is read in one loop, so only a nested block or a
nested right operand costs a level of recursion.  decode_image reads the
table once, before the body.  Truncation is found by the read that runs out
of bytes: its IndexError or struct.error (a table entry checks its own end,
as a slice would only come out short), which decode_image turns into the one
FormatError "truncated image file".  Invalid UTF-8 in a table entry is the
decode's UnicodeDecodeError, which it turns into "bad string in image".

One encoding per value: a flag byte (a bool, or the presence of a list
element type or an optional value) is 0 or 1, a code byte names one of its
values, method flags are at most 3, a method is flagged a constructor
exactly when it is named as its class, an operator or builtin is one the
language has and the annotation table names a class once.  The string table
has one encoding too: its entries are distinct, each is used, and they are
in the order of their first use in the body; an index within the table is
checked at its first read (_Table.__missing__).  Anything else is a
FormatError, so an image decodes and encodes back to the same bytes.
Identical plans always produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import struct

from .._version import __version__
from ..dsl.ast import (
    BINARY_OPS, BUILTINS, PRIMITIVE_TYPES,
    Annotation, Assign, Binary, BoolLit, BuiltinCall, ClassDecl, ExprStmt,
    FieldDecl, FieldGet, If, IntLit, ListLit, MethodCall, MethodDecl, New, Param,
    Return, StrLit, This, TypeRef, Unary, Var, VarDecl, Visibility, While,
)
from ..errors import FormatError
from .plan import ImageSpec, PartitionPlan

MAGIC = b"EPIMG\x04"

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
# Bound once: run per string, count and integer.
_pack_u32, _u32, _i64 = _U32.pack, _U32.unpack_from, _I64.unpack_from


class _Strings(dict):
    """The string table being written: each string used so far -> its
    index, packed, and the table's entries as bytes.  A string's first use
    gives it the next index and appends its entry."""

    __slots__ = ("table",)

    def __missing__(self, text: str) -> bytes:
        ref = self[text] = _pack_u32(len(self))
        data = text.encode()
        table = self.table
        table += _pack_u32(len(data))
        table += data
        return ref


class _Writer(bytearray):
    """The body of the image being written, and its strings.  Every writer
    function takes (w, value); a string is written as w.strings[text]."""

    __slots__ = ("strings",)
    u8 = bytearray.append

    def __init__(self) -> None:
        self.strings = _Strings()
        self.strings.table = bytearray()

    def i64(self, v: int) -> None:
        self += _I64.pack(v)

    def image(self) -> bytes:
        """The magic, the string table, then the body."""
        strings = self.strings
        return b"".join((MAGIC, _pack_u32(len(strings)), strings.table, self))


# -- writing: one schema ------------------------------------------------------------

def _put_type(w: _Writer, t: TypeRef) -> None:
    w += w.strings[t.name]
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
        if put is None:  # a string: its index, written in place
            w += w.strings[getattr(node, name)]
        else:
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
    "str": None,  # written in place by _put_node and put_record
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
            if put is None:
                w += w.strings[getattr(value, name)]
            else:
                put(w, getattr(value, name))
    return put_record


_NODE_PUT = {cls: (tag, _fields(cls))
             for tags in (_EXPR_TAGS, _STMT_TAGS) for tag, cls in enumerate(tags)}
_put_params = _FIELD_PUT["list[Param]"] = _sequence(_record(Param))
_FIELD_PUT["list[FieldDecl]"] = _sequence(_record(FieldDecl))
_put_body = _FIELD_PUT["list[Stmt]"]


def _put_method(w: _Writer, m: MethodDecl) -> None:
    """By hand: both flags share one byte, written before the body."""
    w += w.strings[m.name]
    _put_params(w, m.params)
    _put_type(w, m.return_type)
    w.u8((1 if m.is_constructor else 0) | (2 if m.is_static else 0))
    _put_body(w, m.body)


_FIELD_PUT["list[MethodDecl]"] = _sequence(_put_method)
_put_ann = _FIELD_PUT["Annotation"]


def _put_annotated(w: _Writer, item: tuple[str, Annotation]) -> None:
    w += w.strings[item[0]]
    _put_ann(w, item[1])


_put_anns = _sequence(_put_annotated)
_put_classes = _sequence(_record(ClassDecl))


# -- reading: one function per record -----------------------------------------------
#
# A node reader, named after its node, starts after the tag: the caller
# indexes _EXPR_GET or _STMT_GET by the tag byte, and the entries past the
# known tags raise.  A string is t[_u32(data, pos)[0]], read in place.

class _Table(dict):
    """The string table as the body reads it: index -> string, holding the
    indices read so far.  The first read of an index comes to __missing__,
    which checks that it is the table's next entry."""

    __slots__ = ("entries",)

    def __init__(self, entries: list[str]) -> None:
        super().__init__()
        self.entries = entries

    def __missing__(self, i: int) -> str:
        n = len(self)
        if i >= len(self.entries):
            raise FormatError(f"string index {i} is past the table's "
                              f"{len(self.entries)} entries")
        if i != n:
            raise FormatError(f"string table entry {i} is used before "
                              f"entry {n}")
        text = self[i] = self.entries[i]
        return text


def _get_table(data: bytes, pos: int) -> tuple[_Table, int]:
    """A u32 count, then each entry as a u32 length and its UTF-8 bytes."""
    count = _u32(data, pos)[0]
    pos += 4
    entries = []
    for _ in range(count):
        start = pos + 4
        pos = start + _u32(data, pos)[0]
        if pos > len(data):  # a slice past the end would just be shorter
            raise IndexError(pos)
        entries.append(data[start:pos].decode())
    if len(set(entries)) != len(entries):
        first: dict[str, int] = {}
        for j, text in enumerate(entries):
            i = first.setdefault(text, j)
            if i != j:
                raise FormatError(f"string table entry {j} repeats entry {i}")
    return _Table(entries), pos


def _get_name(data: bytes, pos: int, t: _Table, values: dict, what: str):
    """A string naming one of values (a dict by text)."""
    text = t[_u32(data, pos)[0]]
    value = values.get(text)
    if value is None:
        raise FormatError(f"bad {what} {text!r}")
    return value, pos + 4


def _bad_flag(flag: int) -> FormatError:
    return FormatError(f"bad flag byte {flag}")


def _get_type(data: bytes, pos: int, t: _Table) -> tuple[TypeRef, int]:
    name = t[_u32(data, pos)[0]]
    flag = data[pos + 4]
    if not flag:
        return PRIMITIVE_TYPES.get(name) or TypeRef(name), pos + 5
    if flag != 1:
        raise _bad_flag(flag)
    elem, pos = _get_type(data, pos + 5, t)
    return TypeRef(name, elem), pos


def _get_items(data: bytes, pos: int, t: _Table, get) -> tuple[list, int]:
    """A u32 count, then that many records read by get."""
    count = _u32(data, pos)[0]
    pos += 4
    items = []
    for _ in range(count):
        item, pos = get(data, pos, t)
        items.append(item)
    return items, pos


# Names a node may hold: a decoded name is one the language has, so the
# interpreter never meets another.
_UNARY_OPS = {"-": "-"}
_BINARY_OPS = frozenset(op for ops in BINARY_OPS for op in ops)
_BUILTINS = {name: name for name in BUILTINS}
_BINARY_TAG = _EXPR_TAGS.index(Binary)


def _get_exprs(data: bytes, pos: int, t: _Table) -> tuple[list, int]:
    count = _u32(data, pos)[0]
    pos += 4
    items = []
    for _ in range(count):
        item, pos = _EXPR_GET[data[pos]](data, pos + 1, t)
        items.append(item)
    return items, pos


def _get_body(data: bytes, pos: int, t: _Table) -> tuple[list, int]:
    count = _u32(data, pos)[0]
    pos += 4
    body = []
    for _ in range(count):
        stmt, pos = _STMT_GET[data[pos]](data, pos + 1, t)
        body.append(stmt)
    return body, pos


def _int_lit(data, pos, t):
    return IntLit(_i64(data, pos)[0]), pos + 8


def _bool_lit(data, pos, t):
    flag = data[pos]
    if flag > 1:
        raise _bad_flag(flag)
    return BoolLit(flag == 1), pos + 1


def _str_lit(data, pos, t):
    return StrLit(t[_u32(data, pos)[0]]), pos + 4


def _var(data, pos, t):
    return Var(t[_u32(data, pos)[0]]), pos + 4


def _this(data, pos, t):
    return This(), pos


def _field_get(data, pos, t):
    receiver, pos = _EXPR_GET[data[pos]](data, pos + 1, t)
    return FieldGet(receiver, t[_u32(data, pos)[0]]), pos + 4


def _unary(data, pos, t):
    op, pos = _get_name(data, pos, t, _UNARY_OPS, "unary operator")
    operand, pos = _EXPR_GET[data[pos]](data, pos + 1, t)
    return Unary(op, operand), pos


def _binary(data, pos, t):
    """A left-deep chain in one loop, so its length costs no recursion.  The
    bytes are read in order: each operator, outermost first, while the left
    operand is again a Binary, then the leftmost operand, then the right
    operands innermost first."""
    ops = []
    while True:
        op = t[_u32(data, pos)[0]]
        if op not in _BINARY_OPS:
            raise FormatError(f"bad binary operator {op!r}")
        ops.append(op)
        pos += 4
        if data[pos] != _BINARY_TAG:
            break
        pos += 1
    left, pos = _EXPR_GET[data[pos]](data, pos + 1, t)
    for op in reversed(ops):
        right, pos = _EXPR_GET[data[pos]](data, pos + 1, t)
        left = Binary(op, left, right)
    return left, pos


def _new(data, pos, t):
    name = t[_u32(data, pos)[0]]
    args, pos = _get_exprs(data, pos + 4, t)
    return New(name, args), pos


def _method_call(data, pos, t):
    receiver, pos = _EXPR_GET[data[pos]](data, pos + 1, t)
    name = t[_u32(data, pos)[0]]
    args, pos = _get_exprs(data, pos + 4, t)
    return MethodCall(receiver, name, args), pos


def _builtin_call(data, pos, t):
    name, pos = _get_name(data, pos, t, _BUILTINS, "builtin")
    args, pos = _get_exprs(data, pos, t)
    return BuiltinCall(name, args), pos


def _list_lit(data, pos, t):
    elements, pos = _get_exprs(data, pos, t)
    return ListLit(elements), pos


def _unknown_expr(data, pos, t):
    raise FormatError(f"unknown expression tag {data[pos - 1]}")


def _var_decl(data, pos, t):
    name = t[_u32(data, pos)[0]]
    flag = data[pos + 4]
    if flag > 1:
        raise _bad_flag(flag)
    declared, pos = None, pos + 5
    if flag:
        declared, pos = _get_type(data, pos, t)
    init, pos = _EXPR_GET[data[pos]](data, pos + 1, t)
    return VarDecl(name, declared, init), pos


def _assign(data, pos, t):
    target, pos = _EXPR_GET[data[pos]](data, pos + 1, t)
    if not isinstance(target, (Var, FieldGet)):
        raise FormatError("assignment target must be a variable or field")
    value, pos = _EXPR_GET[data[pos]](data, pos + 1, t)
    return Assign(target, value), pos


def _expr_stmt(data, pos, t):
    expr, pos = _EXPR_GET[data[pos]](data, pos + 1, t)
    return ExprStmt(expr), pos


def _return(data, pos, t):
    flag = data[pos]
    if flag > 1:
        raise _bad_flag(flag)
    if not flag:
        return Return(), pos + 1
    value, pos = _EXPR_GET[data[pos + 1]](data, pos + 2, t)
    return Return(value), pos


def _if(data, pos, t):
    cond, pos = _EXPR_GET[data[pos]](data, pos + 1, t)
    then_body, pos = _get_body(data, pos, t)
    else_body, pos = _get_body(data, pos, t)
    return If(cond, then_body, else_body), pos


def _while(data, pos, t):
    cond, pos = _EXPR_GET[data[pos]](data, pos + 1, t)
    body, pos = _get_body(data, pos, t)
    return While(cond, body), pos


def _unknown_stmt(data, pos, t):
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

def _get_param(data: bytes, pos: int, t: _Table) -> tuple[Param, int]:
    name = t[_u32(data, pos)[0]]
    typ, pos = _get_type(data, pos + 4, t)
    return Param(name, typ), pos


def _get_field(data: bytes, pos: int, t: _Table) -> tuple[FieldDecl, int]:
    name = t[_u32(data, pos)[0]]
    typ, pos = _get_type(data, pos + 4, t)
    code = data[pos]
    if code > 1:
        raise FormatError(f"bad visibility byte {code}")
    return FieldDecl(name, typ, _VISIBILITIES[code]), pos + 1


def _get_method(data: bytes, pos: int, t: _Table) -> tuple[MethodDecl, int]:
    name = t[_u32(data, pos)[0]]
    params, pos = _get_items(data, pos + 4, t, _get_param)
    ret, pos = _get_type(data, pos, t)
    flags = data[pos]
    if flags > 3:
        raise FormatError(f"bad method flags byte {flags}")
    body, pos = _get_body(data, pos + 1, t)
    return MethodDecl(name, params, ret, body, is_constructor=bool(flags & 1),
                      is_static=bool(flags & 2)), pos


def _get_annotation(data: bytes, pos: int) -> tuple[Annotation, int]:
    code = data[pos]
    if code > 2:
        raise FormatError(f"bad annotation byte {code}")
    return _ANNOTATIONS[code], pos + 1


def _get_class(data: bytes, pos: int, t: _Table) -> tuple[ClassDecl, int]:
    name = t[_u32(data, pos)[0]]
    annotation, pos = _get_annotation(data, pos + 4)
    fields, pos = _get_items(data, pos, t, _get_field)
    methods, pos = _get_items(data, pos, t, _get_method)
    for m in methods:  # the parser's rule: a constructor is named as its class
        if m.is_constructor != (m.name == name):
            raise FormatError(f"the constructor flag of {name}.{m.name} "
                              "disagrees with its name")
    return ClassDecl(name, annotation, fields, methods), pos


_SIDES = {a.value: a for a in Annotation}


def _get_annotated(data: bytes, pos: int,
                   t: _Table) -> tuple[tuple[str, Annotation], int]:
    name = t[_u32(data, pos)[0]]
    annotation, pos = _get_annotation(data, pos + 4)
    return (name, annotation), pos


def _get_image(data: bytes, pos: int, t: _Table):
    """The header, checked, then the image: (spec, annotations, version, the
    offset after it)."""
    side, pos = _get_name(data, pos, t, _SIDES, "image side")
    version = t[_u32(data, pos)[0]]
    pairs, pos = _get_items(data, pos + 4, t, _get_annotated)
    annotations = dict(pairs)
    if len(annotations) != len(pairs):
        raise FormatError("a class name appears twice in the annotation table")
    classes, pos = _get_items(data, pos, t, _get_class)
    proxies, pos = _get_items(data, pos, t, _get_class)
    names = set()
    for c in (*classes, *proxies):
        if c.name in names:
            raise FormatError(f"class {c.name} has two records in the image")
        names.add(c.name)
    return ImageSpec(side, classes, proxies), annotations, version, pos


# -- whole images ---------------------------------------------------------------

def encode_image(plan: PartitionPlan, spec: ImageSpec) -> bytes:
    w = _Writer()
    w += w.strings[spec.side.value]
    w += w.strings[__version__]
    _put_anns(w, list(plan.annotations.items()))
    _put_classes(w, spec.classes)
    _put_classes(w, spec.proxies)
    return w.image()


def decode_image(data: bytes) -> tuple[ImageSpec, dict[str, Annotation], str]:
    if not data.startswith(MAGIC):
        raise FormatError("bad magic: not an image file or unsupported version")
    try:
        t, pos = _get_table(data, len(MAGIC))
        spec, annotations, version, pos = _get_image(data, pos, t)
    except (IndexError, struct.error):
        raise FormatError("truncated image file") from None
    except UnicodeDecodeError as e:
        raise FormatError(f"bad string in image: {e}") from e
    if pos != len(data):
        raise FormatError("trailing bytes in image file")
    if len(t) != len(t.entries):
        raise FormatError(f"string table entry {len(t)} is not used")
    return spec, annotations, version
