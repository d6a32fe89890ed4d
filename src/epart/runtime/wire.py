"""Canonical binary encoding for values crossing the isolate boundary.

Tag byte, then payload (little endian):
  0x00 Unit
  0x01 Int            signed 64-bit
  0x02 Bool           one byte, 0 or 1
  0x03 Str            u32 byte length + UTF-8 bytes
  0x04 List           u32 count + element encodings
  0x05 HashRef        u64 object hash + u32 class id
  0x06 NeutralObject  u32 class id + u32 field count + field encodings

Every value has exactly one encoding and decoding rejects anything else
(unknown tags, bool bytes above 1, invalid UTF-8, truncation, trailing
bytes), so encoding is a bijection between values and their byte strings.

The tuple codec (encode, decode, decode_prefix) defines the format.  It
maps structural tuples, independent of any heap, to bytes and back:
  ("unit",) ("int", v) ("bool", b) ("str", s) ("list", [wv...])
  ("href", hash, class_id) ("neutral", class_id, [wv...])
The tests tie the runtime walks below to it, and the benchmark's wire
probe times it.

A crossing builds no bytes.  Both sides live in one process, so the
runtime walks the live values (str, int, bool, None, ListObj, InstanceObj,
ProxyObj) twice instead:
  measure(values, iso, rt)      the length of their canonical encoding,
                                which the crossing bills; it raises every
                                fault encoding would and mints hashes in
                                the same order
  land(values, src, iso, rt)    what decoding that encoding on iso would
                                build: Str, Int and Bool shared, a list
                                allocated after its items and a neutral
                                object before its fields, both uncharged
The landing policy comes from the runtime `rt` they are given:
  rt.class_ids                      class name -> wire class id; a value
                                    of a class it lacks cannot cross
  rt.home_hash(iso, obj)            the hash of a home object, minted on
                                    first exposure
  rt.resolve_href(iso, h, name)     what an arriving hash lands as
  rt.decl_for(iso, name)            the neutral class a payload names
A neutral object is sent by value: a cycle through lists or neutral fields,
or an unset field, cannot cross.
"""

from __future__ import annotations

import struct

from ..dsl.ast import Annotation
from ..errors import MarshalError
from .heap import UNSET, InstanceObj, ListObj, ProxyObj

TAG_UNIT = 0x00
TAG_INT = 0x01
TAG_BOOL = 0x02
TAG_STR = 0x03
TAG_LIST = 0x04
TAG_HASHREF = 0x05
TAG_NEUTRAL = 0x06

WireValue = tuple

UNIT: WireValue = ("unit",)

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

# Tag and payload of each layout, packed in one call.
_INT = struct.Struct("<Bq")
_LEN = struct.Struct("<BI")          # Str byte length, List count
_HASHREF = struct.Struct("<BQI")
_NEUTRAL = struct.Struct("<BII")
# The payloads alone, for reading after the tag.
_Q = struct.Struct("<q")
_I = struct.Struct("<I")
_QI = struct.Struct("<QI")
_II = struct.Struct("<II")

_B_UNIT = bytes([TAG_UNIT])
_B_FALSE = bytes([TAG_BOOL, 0])
_B_TRUE = bytes([TAG_BOOL, 1])

# Encoded sizes of the layouts above, which measure bills: a Str or List
# head (tag and length), an Int, a HashRef, a NeutralObject head, a Bool,
# a Unit.
_HEAD_SIZE = _LEN.size
_INT_SIZE = _INT.size
_HREF_SIZE = _HASHREF.size
_NEUTRAL_SIZE = _NEUTRAL.size
_BOOL_SIZE = len(_B_TRUE)
_UNIT_SIZE = len(_B_UNIT)

_NEUTRAL_CLASS = Annotation.NEUTRAL
_CYCLIC = "cyclic value cannot cross the boundary"


# -- runtime walks --------------------------------------------------------------

def measure(values, iso, rt) -> int:
    """The length of the canonical encoding of `values`, back to back, as
    `iso` sends them; mints the hashes of home objects first exposed."""
    path: set[int] = set()  # ids of the lists and neutral objects being walked
    size = 0
    for value in values:
        size += _size(value, iso, rt, path)
    return size


def _size(value, iso, rt, path: set[int]) -> int:
    cls = value.__class__  # exact classes: a bool is not an int here
    if cls is str:
        return _HEAD_SIZE + _utf8_len(value)
    if cls is int:
        if not _I64_MIN <= value <= _I64_MAX:
            raise MarshalError(f"integer {value} out of 64-bit range")
        return _INT_SIZE
    if cls is ListObj:
        key = id(value)
        if key in path:
            raise MarshalError(_CYCLIC)
        path.add(key)
        size = _HEAD_SIZE
        for item in value.items:
            if item.__class__ is str and item.isascii():
                size += _HEAD_SIZE + len(item)
            else:
                size += _size(item, iso, rt, path)
        path.discard(key)
        return size
    if cls is ProxyObj:
        _check_class(rt, value.class_name)
        return _HREF_SIZE
    if cls is InstanceObj:
        decl = value.decl
        if decl.annotation is not _NEUTRAL_CLASS:
            _check_class(rt, decl.name)
            rt.home_hash(iso, value)
            return _HREF_SIZE
        key = id(value)
        if key in path:
            raise MarshalError(_CYCLIC)
        path.add(key)
        _check_class(rt, decl.name)
        fields = value.values
        size = _NEUTRAL_SIZE
        for f in decl.fields:
            v = fields[f.name]
            if v is UNSET:
                raise MarshalError(f"unset field {decl.name}.{f.name} "
                                   "cannot cross the boundary")
            size += _size(v, iso, rt, path)
        path.discard(key)
        return size
    if cls is bool:
        return _BOOL_SIZE
    if value is None:
        return _UNIT_SIZE
    raise MarshalError(f"cannot marshal {value!r}")


def _utf8_len(s: str) -> int:
    if s.isascii():
        return len(s)
    try:
        return len(s.encode("utf-8"))
    except UnicodeEncodeError as e:  # a lone surrogate, from the host
        raise MarshalError(f"Str is not UTF-8 text: {e.reason}") from None


def _check_class(rt, name: str) -> None:
    if name not in rt.class_ids:
        raise MarshalError(f"unknown class {name}")


def land(values, src, iso, rt) -> list:
    """`values`, which measure has walked on `src`, built on `iso`."""
    return [_land(value, src, iso, rt) for value in values]


def _land(value, src, iso, rt):
    cls = value.__class__
    if cls is ListObj:
        lst = ListObj([item if item.__class__ is str
                       else _land(item, src, iso, rt) for item in value.items])
        iso.alloc(lst, charged=False)
        return lst
    if cls is ProxyObj:
        return rt.resolve_href(iso, value.hash_value, value.class_name)
    if cls is not InstanceObj:  # Str, Int, Bool, Unit
        return value
    decl = value.decl
    if decl.annotation is not _NEUTRAL_CLASS:
        return rt.resolve_href(iso, src.pair_hash[value], decl.name)
    target = rt.decl_for(iso, decl.name)
    if len(decl.fields) != len(target.fields):
        raise MarshalError(f"{target.name} payload has {len(decl.fields)} "
                           f"fields, expected {len(target.fields)}")
    obj = InstanceObj(target)
    iso.alloc(obj, charged=False)
    sent, fields = value.values, obj.values
    for f, g in zip(decl.fields, target.fields):
        fields[g.name] = _land(sent[f.name], src, iso, rt)
    return obj


# -- reference tuple codec --------------------------------------------------------

def encode(value: WireValue) -> bytes:
    """Encode a wire value to its canonical byte string."""
    kind = value[0]
    if kind == "unit":
        return _B_UNIT
    if kind == "int":
        v = value[1]
        if not _I64_MIN <= v <= _I64_MAX:
            raise MarshalError(f"integer {v} out of 64-bit range")
        return _INT.pack(TAG_INT, v)
    if kind == "bool":
        return _B_TRUE if value[1] else _B_FALSE
    if kind == "str":
        data = value[1].encode("utf-8")
        return _LEN.pack(TAG_STR, len(data)) + data
    if kind == "list":
        items = value[1]
        return b"".join([_LEN.pack(TAG_LIST, len(items)),
                         *(encode(item) for item in items)])
    if kind == "href":
        _, h, class_id = value
        return _HASHREF.pack(TAG_HASHREF, h, class_id)
    if kind == "neutral":
        _, class_id, fields = value
        return b"".join([_NEUTRAL.pack(TAG_NEUTRAL, class_id, len(fields)),
                         *(encode(f) for f in fields)])
    raise MarshalError(f"unknown wire value kind {kind!r}")


def decode_prefix(data: bytes, offset: int = 0) -> tuple[WireValue, int]:
    """Decode one value starting at offset; returns (value, next offset)."""
    if offset >= len(data):
        raise MarshalError("truncated wire data")
    tag = data[offset]
    offset += 1
    if tag == TAG_UNIT:
        return UNIT, offset
    if tag == TAG_INT:
        if offset + 8 > len(data):
            raise MarshalError("truncated Int")
        return ("int", _Q.unpack_from(data, offset)[0]), offset + 8
    if tag == TAG_BOOL:
        return ("bool", _bool(data, offset)), offset + 1
    if tag == TAG_STR:
        if offset + 4 > len(data):
            raise MarshalError("truncated Str length")
        end = offset + 4 + _I.unpack_from(data, offset)[0]
        if end > len(data):
            raise MarshalError("truncated Str payload")
        return ("str", _utf8(data, offset + 4, end)), end
    if tag == TAG_LIST:
        if offset + 4 > len(data):
            raise MarshalError("truncated List count")
        (n,) = _I.unpack_from(data, offset)
        offset += 4
        items = []
        for _ in range(n):
            item, offset = decode_prefix(data, offset)
            items.append(item)
        return ("list", items), offset
    if tag == TAG_HASHREF:
        if offset + 12 > len(data):
            raise MarshalError("truncated HashRef")
        h, class_id = _QI.unpack_from(data, offset)
        return ("href", h, class_id), offset + 12
    if tag == TAG_NEUTRAL:
        if offset + 8 > len(data):
            raise MarshalError("truncated NeutralObject header")
        class_id, n = _II.unpack_from(data, offset)
        offset += 8
        fields = []
        for _ in range(n):
            f, offset = decode_prefix(data, offset)
            fields.append(f)
        return ("neutral", class_id, fields), offset
    raise MarshalError(f"unknown wire tag 0x{tag:02x}")


def _utf8(data, start: int, end: int) -> str:
    try:
        return data[start:end].decode("utf-8")
    except UnicodeDecodeError as e:
        raise MarshalError(f"invalid UTF-8 in Str: {e}") from e


def _bool(data, pos: int) -> bool:
    if pos >= len(data):
        raise MarshalError("truncated Bool")
    b = data[pos]
    if b > 1:
        raise MarshalError(f"non-canonical Bool byte {b}")
    return b == 1


def decode(data: bytes) -> WireValue:
    """Decode exactly one value; trailing bytes are rejected."""
    value, offset = decode_prefix(data, 0)
    if offset != len(data):
        raise MarshalError(f"{len(data) - offset} trailing byte(s) after value")
    return value
