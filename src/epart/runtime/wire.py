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

Two codecs write and read this format.

The runtime codec is what a crossing runs.  encode_values walks runtime
values (str, int, bool, None, ListObj, InstanceObj, ProxyObj) and appends
their bytes to one bytearray as it goes; decode_values builds heap objects
straight from the bytes.  Neither builds an intermediate tree.  The landing
policy comes from the runtime `rt` they are given:
  rt.class_ids                      class name -> wire class id; a value
                                    of a class it lacks cannot cross
  rt.home_hash(iso, obj)            the hash of a home object, minted on
                                    first exposure
  rt.resolve_href(iso, h, class_id) what an arriving hash lands as
  rt.decl_for_id(iso, class_id)     the neutral class a payload names
A neutral object is sent by value: a cycle through lists or neutral fields,
or an unset field, cannot cross.  A decoded list is allocated after its
items, a neutral object before its fields, both uncharged.

The tuple codec (encode, decode, decode_prefix) is the format's reference
implementation, kept for tests and the benchmark's wire probe.  It maps
structural tuples, independent of any heap, to bytes and back:
  ("unit",) ("int", v) ("bool", b) ("str", s) ("list", [wv...])
  ("href", hash, class_id) ("neutral", class_id, [wv...])
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

_NEUTRAL_CLASS = Annotation.NEUTRAL
_CYCLIC = "cyclic value cannot cross the boundary"


# -- runtime codec --------------------------------------------------------------

def encode_values(values, iso, rt) -> bytearray:
    """The bytes of `values`, back to back, as `iso` sends them."""
    out = bytearray()
    path: set[int] = set()  # ids of the lists and neutral objects being walked
    for value in values:
        _write(out, value, iso, rt, path)
    return out


def _write(out: bytearray, value, iso, rt, path: set[int]) -> None:
    cls = value.__class__  # exact classes: a bool is not an int here
    if cls is str:
        try:
            data = value.encode("utf-8")
        except UnicodeEncodeError as e:  # a lone surrogate, from the host
            raise MarshalError(f"Str is not UTF-8 text: {e.reason}") from None
        out += _LEN.pack(TAG_STR, len(data))
        out += data
    elif cls is int:
        if not _I64_MIN <= value <= _I64_MAX:
            raise MarshalError(f"integer {value} out of 64-bit range")
        out += _INT.pack(TAG_INT, value)
    elif cls is ListObj:
        key = id(value)
        if key in path:
            raise MarshalError(_CYCLIC)
        path.add(key)
        items = value.items
        out += _LEN.pack(TAG_LIST, len(items))
        for item in items:
            _write(out, item, iso, rt, path)
        path.discard(key)
    elif cls is ProxyObj:
        out += _HASHREF.pack(TAG_HASHREF, value.hash_value,
                             _class_id(rt, value.class_name))
    elif cls is InstanceObj:
        decl = value.decl
        if decl.annotation is _NEUTRAL_CLASS:
            key = id(value)
            if key in path:
                raise MarshalError(_CYCLIC)
            path.add(key)
            fields = value.values
            out += _NEUTRAL.pack(TAG_NEUTRAL, _class_id(rt, decl.name),
                                 len(decl.fields))
            for f in decl.fields:
                v = fields[f.name]
                if v is UNSET:
                    raise MarshalError(f"unset field {decl.name}.{f.name} "
                                       "cannot cross the boundary")
                _write(out, v, iso, rt, path)
            path.discard(key)
        else:
            class_id = _class_id(rt, decl.name)
            out += _HASHREF.pack(TAG_HASHREF, rt.home_hash(iso, value),
                                 class_id)
    elif cls is bool:
        out += _B_TRUE if value else _B_FALSE
    elif value is None:
        out += _B_UNIT
    else:
        raise MarshalError(f"cannot marshal {value!r}")


def _class_id(rt, name: str) -> int:
    try:
        return rt.class_ids[name]
    except KeyError:
        raise MarshalError(f"unknown class {name}") from None


def decode_values(data, count: int, iso, rt) -> list:
    """Land exactly `count` back-to-back values on `iso`; all of `data` must
    be consumed."""
    values = []
    pos = 0
    for _ in range(count):
        value, pos = _read(data, pos, iso, rt)
        values.append(value)
    if pos != len(data):
        raise MarshalError(f"{len(data) - pos} trailing byte(s) after sequence")
    return values


def _read(data, pos: int, iso, rt):
    """One value starting at pos, landed on iso: (value, next pos)."""
    size = len(data)
    if pos >= size:
        raise MarshalError("truncated wire data")
    tag = data[pos]
    pos += 1
    if tag == TAG_STR:
        if pos + 4 > size:
            raise MarshalError("truncated Str length")
        end = pos + 4 + _I.unpack_from(data, pos)[0]
        if end > size:
            raise MarshalError("truncated Str payload")
        return _utf8(data, pos + 4, end), end
    if tag == TAG_INT:
        if pos + 8 > size:
            raise MarshalError("truncated Int")
        return _Q.unpack_from(data, pos)[0], pos + 8
    if tag == TAG_HASHREF:
        if pos + 12 > size:
            raise MarshalError("truncated HashRef")
        h, class_id = _QI.unpack_from(data, pos)
        return rt.resolve_href(iso, h, class_id), pos + 12
    if tag == TAG_LIST:
        if pos + 4 > size:
            raise MarshalError("truncated List count")
        (n,) = _I.unpack_from(data, pos)
        pos += 4
        items = []
        for _ in range(n):
            item, pos = _read(data, pos, iso, rt)
            items.append(item)
        lst = ListObj(items)
        iso.alloc(lst, charged=False)
        return lst, pos
    if tag == TAG_NEUTRAL:
        if pos + 8 > size:
            raise MarshalError("truncated NeutralObject header")
        class_id, n = _II.unpack_from(data, pos)
        pos += 8
        decl = rt.decl_for_id(iso, class_id)
        if n != len(decl.fields):
            raise MarshalError(f"{decl.name} payload has {n} fields, "
                               f"expected {len(decl.fields)}")
        obj = InstanceObj(decl)
        iso.alloc(obj, charged=False)
        fields = obj.values
        for f in decl.fields:
            fields[f.name], pos = _read(data, pos, iso, rt)
        return obj, pos
    if tag == TAG_BOOL:
        return _bool(data, pos), pos + 1
    if tag == TAG_UNIT:
        return None, pos
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


def decode(data: bytes) -> WireValue:
    """Decode exactly one value; trailing bytes are rejected."""
    value, offset = decode_prefix(data, 0)
    if offset != len(data):
        raise MarshalError(f"{len(data) - offset} trailing byte(s) after value")
    return value
