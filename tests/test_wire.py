import random
import struct
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epart.dsl import parse_program
from epart.dsl.ast import Annotation
from epart.errors import MarshalError
from epart.partition import compute_images
from epart.runtime import wire
from epart.runtime.dual import DualRuntime
from epart.runtime.heap import (
    TRUSTED, UNTRUSTED, InstanceObj, ListObj, ProxyObj,
)


def random_wire_value(rng: random.Random, depth: int = 0) -> tuple:
    kinds = ["unit", "int", "bool", "str", "href"]
    if depth < 3:
        kinds += ["list", "neutral"]
    kind = rng.choice(kinds)
    if kind == "unit":
        return wire.UNIT
    if kind == "int":
        return ("int", rng.randrange(-2**63, 2**63))
    if kind == "bool":
        return ("bool", rng.random() < 0.5)
    if kind == "str":
        n = rng.randrange(0, 12)
        return ("str", "".join(chr(rng.randrange(32, 0x2FA0))
                               for _ in range(n)))
    if kind == "href":
        return ("href", rng.randrange(2**64), rng.randrange(2**32))
    if kind == "list":
        return ("list", [random_wire_value(rng, depth + 1)
                         for _ in range(rng.randrange(0, 5))])
    return ("neutral", rng.randrange(2**32),
            [random_wire_value(rng, depth + 1)
             for _ in range(rng.randrange(0, 4))])


class TestFrozenEncodings:
    def test_unit(self):
        assert wire.encode(wire.UNIT) == b"\x00"

    def test_int(self):
        assert wire.encode(("int", 1)) == b"\x01\x01\x00\x00\x00\x00\x00\x00\x00"
        assert wire.encode(("int", -1)) == b"\x01" + b"\xff" * 8

    def test_bool(self):
        assert wire.encode(("bool", False)) == b"\x02\x00"
        assert wire.encode(("bool", True)) == b"\x02\x01"

    def test_str(self):
        assert wire.encode(("str", "hi")) == b"\x03\x02\x00\x00\x00hi"

    def test_list(self):
        assert wire.encode(("list", [("int", 7)])) == \
            b"\x04\x01\x00\x00\x00" + b"\x01\x07" + b"\x00" * 7

    def test_href(self):
        data = wire.encode(("href", 2**63 | 5, 9))
        assert data == b"\x05" + struct.pack("<QI", 2**63 | 5, 9)

    def test_neutral(self):
        data = wire.encode(("neutral", 3, [("bool", True)]))
        assert data == b"\x06" + struct.pack("<II", 3, 1) + b"\x02\x01"

    def test_str_list_size_law(self):
        # a list of n 16-byte strings encodes to 5 + 21n bytes
        for n in (0, 1, 10, 1000):
            v = ("list", [("str", "x" * 16)] * n)
            assert len(wire.encode(v)) == 5 + 21 * n

    def test_int_out_of_range(self):
        with pytest.raises(MarshalError):
            wire.encode(("int", 2**63))

    def test_unknown_kind(self):
        with pytest.raises(MarshalError):
            wire.encode(("widget", 1))


class TestRoundTrip:
    def test_ten_thousand_random_values(self):
        rng = random.Random(20260814)
        for _ in range(10000):
            v = random_wire_value(rng)
            data = wire.encode(v)
            assert wire.decode(data) == v
            assert wire.encode(wire.decode(data)) == data

    def test_sequence_roundtrip(self):
        """measure bills back-to-back values at their encodings' total
        length, and land builds each of them on the peer."""
        rt, notes, _ = peers()
        untrusted, trusted = rt.isolates[UNTRUSTED], rt.isolates[TRUSTED]
        values = [-7, "h\u00e9llo", True, None,
                  ListObj(["a", ListObj([1])]), notes[0]]
        encodings = [("int", -7), ("str", "h\u00e9llo"), ("bool", True),
                     wire.UNIT,
                     ("list", [("str", "a"), ("list", [("int", 1)])]),
                     ("href", 1, CLASS_IDS["Note"])]
        assert wire.measure(values, untrusted) == \
            sum(len(wire.encode(v)) for v in encodings)
        landed = wire.land(values, untrusted, trusted)
        assert [describe(trusted, v) for v in landed] == [
            ("int", -7), ("str", "h\u00e9llo"), ("bool", True),
            ("NoneType", None),
            ("list", [("str", "a"), ("list", [("int", 1)])]),
            ("proxy", "Note", 1)]

    def test_sequence_wrong_count(self):
        """decode_prefix reads back-to-back values one at a time; decode
        takes exactly one."""
        blob = wire.encode(("int", 1)) * 2
        assert wire.decode_prefix(blob) == (("int", 1), 9)
        assert wire.decode_prefix(blob, 9) == (("int", 1), 18)
        with pytest.raises(MarshalError) as info:
            wire.decode(blob)
        assert str(info.value) == "9 trailing byte(s) after value"
        with pytest.raises(MarshalError) as info:
            wire.decode_prefix(blob, 18)
        assert str(info.value) == "truncated wire data"


_BAD_UTF8 = ("invalid UTF-8 in Str: 'utf-8' codec can't decode byte 0xff "
             "in position 0: invalid start byte")
# Malformed bytes -> the text decode refuses them with.
REFUSALS = {
    b"": "truncated wire data",
    b"\x07": "unknown wire tag 0x07",
    b"\x01\x01\x00": "truncated Int",
    b"\x02": "truncated Bool",
    b"\x02\x02": "non-canonical Bool byte 2",
    b"\x03\x01\x00": "truncated Str length",
    b"\x03\x05\x00\x00\x00ab": "truncated Str payload",
    b"\x03\x01\x00\x00\x00\xff": _BAD_UTF8,
    b"\x04\x01\x00": "truncated List count",
    b"\x04\x02\x00\x00\x00\x00": "truncated wire data",
    b"\x04\x01\x00\x00\x00\x03\x01\x00\x00\x00\xff": _BAD_UTF8,
    b"\x05\x00\x00": "truncated HashRef",
    b"\x06\x01\x00\x00\x00": "truncated NeutralObject header",
    b"\x01\x03" + b"\x00" * 8: "1 trailing byte(s) after value",
}


class TestCanonicity:
    def test_unknown_tag(self):
        with pytest.raises(MarshalError):
            wire.decode(b"\x07")

    def test_empty(self):
        with pytest.raises(MarshalError):
            wire.decode(b"")

    def test_trailing_bytes(self):
        with pytest.raises(MarshalError):
            wire.decode(wire.encode(("int", 3)) + b"\x00")

    def test_truncated_int(self):
        with pytest.raises(MarshalError):
            wire.decode(b"\x01\x01\x00")

    @pytest.mark.parametrize("data, message", [
        (bytes([0x02]), "truncated Bool"),
        (b"\x03\x01\x00", "truncated Str length"),
        (b"\x04\x01\x00", "truncated List count"),
        (b"\x04\x01\x00\x00\x00\x03\x01", "truncated Str length"),
        (b"\x04\x01\x00\x00\x00\x03\x05\x00\x00\x00ab", "truncated Str payload"),
    ])
    def test_truncation_names_the_value(self, data, message):
        with pytest.raises(MarshalError) as info:
            wire.decode(data)
        assert str(info.value) == message

    @pytest.mark.parametrize("data", list(REFUSALS))
    def test_runtime_decoder_rejects_alike(self, data):
        """The decoder refuses each malformed byte string with the text
        that names its fault.  (The name dates from a second, runtime
        decoder that refused the same bytes alike; crossings no longer
        build bytes.)"""
        with pytest.raises(MarshalError) as info:
            wire.decode(data)
        assert str(info.value) == REFUSALS[data]

    def test_non_canonical_bool(self):
        with pytest.raises(MarshalError):
            wire.decode(b"\x02\x02")

    def test_invalid_utf8(self):
        with pytest.raises(MarshalError):
            wire.decode(b"\x03\x01\x00\x00\x00\xff")

    def test_truncated_str(self):
        with pytest.raises(MarshalError):
            wire.decode(b"\x03\x05\x00\x00\x00ab")

    def test_truncated_list_item(self):
        with pytest.raises(MarshalError):
            wire.decode(b"\x04\x02\x00\x00\x00\x00")

    def test_invalid_utf8_inside_list(self):
        with pytest.raises(MarshalError):
            wire.decode(b"\x04\x01\x00\x00\x00\x03\x01\x00\x00\x00\xff")

    def test_truncated_href(self):
        with pytest.raises(MarshalError):
            wire.decode(b"\x05\x00\x00")

    def test_truncated_neutral(self):
        with pytest.raises(MarshalError):
            wire.decode(b"\x06\x01\x00\x00\x00")


wire_values = st.deferred(lambda: st.one_of(
    st.just(wire.UNIT),
    st.integers(-2**63, 2**63 - 1).map(lambda v: ("int", v)),
    st.booleans().map(lambda b: ("bool", b)),
    st.text(max_size=20).map(lambda s: ("str", s)),
    st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
      .map(lambda t: ("href",) + t),
    st.lists(wire_values, max_size=4).map(lambda xs: ("list", xs)),
    st.tuples(st.integers(0, 2**32 - 1), st.lists(wire_values, max_size=3))
      .map(lambda t: ("neutral", t[0], t[1])),
))


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(wire_values)
    def test_roundtrip(self, v):
        assert wire.decode(wire.encode(v)) == v

    @settings(max_examples=300, deadline=None)
    @given(wire_values)
    def test_single_canonical_encoding(self, v):
        data = wire.encode(v)
        assert wire.encode(wire.decode(data)) == data

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=40))
    def test_decode_never_crashes_uncontrolled(self, blob):
        try:
            v = wire.decode(blob)
        except MarshalError:
            return
        assert wire.encode(v) == blob


# -- the runtime walks against the reference codec --------------------------------

CODEC_SRC = """@Neutral
class Pair {
    n: Int;
    s: Str;
    flag: Bool;
    tags: List[Str];
    Pair(n: Int, s: Str, flag: Bool, tags: List[Str]) {
        this.n = n;
        this.s = s;
        this.flag = flag;
        this.tags = tags;
    }
}
@Neutral
class Wrap {
    inner: Pair;
    Wrap(p: Pair) { this.inner = p; }
}
@Trusted
class Safe {
    Safe() { }
    keep(w: Wrap, grid: List[List[Int]], n: Note) -> Int { return 0; }
}
@Untrusted
class Note {
    Note() { }
}
@Untrusted
class Main {
    static main() {
        var s: Safe = new Safe();
        var w: Wrap = new Wrap(new Pair(1, "a", true, ["t"]));
        print(s.keep(w, [[1]], new Note()));
    }
}
"""


@cache
def codec_plan():
    return compute_images(parse_program(CODEC_SRC))


# A wire class id: the class's index among the program's sorted class names.
CLASS_IDS = {name: i for i, name in enumerate(sorted(codec_plan().annotations))}


def peers():
    """A runtime whose untrusted side holds two Notes, the first already
    paired with a hash, and a proxy to a trusted Safe."""
    rt = DualRuntime(codec_plan())
    untrusted = rt.isolates[UNTRUSTED]
    notes = [rt.construct(UNTRUSTED, "Note", []) for _ in range(2)]
    untrusted.home_hash(notes[0])
    return rt, notes, rt.construct(UNTRUSTED, "Safe", [])


def build(rt, notes, safe, shape, minted: dict):
    """(runtime value on the untrusted side, the wire tuple it stands for).
    `minted` predicts the hashes measure mints, in walk order."""
    kind = shape[0]
    ids = CLASS_IDS
    if kind in ("int", "bool", "str"):
        return shape[1], shape
    if kind == "unit":
        return None, shape
    if kind == "note":
        iso, obj = rt.isolates[UNTRUSTED], notes[shape[1]]
        h = iso.pair_hash.get(obj)
        if h is None:
            h = minted.setdefault(id(obj), iso.hash_counter + len(minted) + 1)
        return obj, ("href", h, ids["Note"])
    if kind == "safe":
        return safe, ("href", safe.hash_value, ids["Safe"])
    if kind == "list":
        built = [build(rt, notes, safe, s, minted) for s in shape[1]]
        return (ListObj([v for v, _ in built]),
                ("list", [wv for _, wv in built]))
    decls = rt.isolates[UNTRUSTED].classes
    if kind == "wrap":
        inner, inner_wv = build(rt, notes, safe, shape[1], minted)
        return (InstanceObj(decls["Wrap"], {"inner": inner}),
                ("neutral", ids["Wrap"], [inner_wv]))
    _, n, s, flag, tags = shape
    obj = InstanceObj(decls["Pair"], {"n": n, "s": s, "flag": flag,
                                      "tags": ListObj(list(tags))})
    return obj, ("neutral", ids["Pair"], [
        ("int", n), ("str", s), ("bool", flag),
        ("list", [("str", t) for t in tags])])


def materialize(iso, wv):
    """Land a wire tuple as decoding its bytes does: a list allocated after
    its items, a neutral object before its fields."""
    kind = wv[0]
    if kind in ("int", "bool", "str"):
        return wv[1]
    if kind == "unit":
        return None
    names = sorted(CLASS_IDS)
    if kind == "href":
        return iso.resolve_href(wv[1], names[wv[2]])
    if kind == "list":
        lst = ListObj([materialize(iso, item) for item in wv[1]])
        iso.alloc(lst, charged=False)
        return lst
    _, class_id, fields = wv
    decl = iso.decl_for(names[class_id])
    obj = InstanceObj(decl)
    iso.alloc(obj, charged=False)
    for f, fwv in zip(decl.fields, fields):
        obj.values[f.name] = materialize(iso, fwv)
    return obj


def describe(iso, value):
    """A landed value as plain data: mirrors by hash, proxies by class and
    hash, everything else by structure."""
    cls = value.__class__
    if cls is ListObj:
        return ("list", [describe(iso, v) for v in value.items])
    if cls is ProxyObj:
        return ("proxy", value.class_name, value.hash_value)
    if cls is InstanceObj:
        if value.decl.annotation is not Annotation.NEUTRAL:
            return ("mirror", iso.pair_hash[value])
        return ("neutral", value.decl.name,
                [describe(iso, value.values[f.name]) for f in value.decl.fields])
    return (cls.__name__, value)


texts = st.text(max_size=8)
int64s = st.integers(-2**63, 2**63 - 1)
pairs = st.tuples(int64s, texts, st.booleans(), st.lists(texts, max_size=3)) \
    .map(lambda t: ("pair",) + t)
runtime_shapes = st.recursive(
    st.one_of(
        st.just(wire.UNIT),
        int64s.map(lambda v: ("int", v)),
        st.booleans().map(lambda b: ("bool", b)),
        texts.map(lambda s: ("str", s)),
        st.sampled_from([("note", 0), ("note", 1), ("safe",)]),
        pairs,
        pairs.map(lambda p: ("wrap", p)),
    ),
    lambda kids: st.lists(kids, max_size=4).map(lambda xs: ("list", xs)),
    max_leaves=12)


class TestRuntimeCodec:
    """measure and land against the tuple codec, which defines the format."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(runtime_shapes, max_size=4))
    def test_matches_the_reference_codec(self, shapes):
        """An argument list, measured and landed in one call as a crossing
        sends it, against the tuple codec's encoding of each argument."""
        rt, notes, safe = peers()
        minted: dict = {}
        built = [build(rt, notes, safe, shape, minted) for shape in shapes]
        values = [v for v, _ in built]
        expected = [wv for _, wv in built]
        untrusted = rt.isolates[UNTRUSTED]
        assert wire.measure(values, untrusted) == \
            len(b"".join(wire.encode(wv) for wv in expected))
        # Hashes minted as predicted, in walk order across the arguments.
        assert {id(o): h for o, h in untrusted.pair_hash.items()} == \
            {id(notes[0]): 1, **minted}

        # Landing on the peer: the same structure, heap order and heap
        # growth as landing the tuples one after another.
        ref, _, _ = peers()
        trusted, ref_trusted = rt.isolates[TRUSTED], ref.isolates[TRUSTED]
        start = len(trusted.heap)
        assert len(ref_trusted.heap) == start
        landed = wire.land(values, untrusted, trusted)
        ref_landed = [materialize(ref_trusted, wv) for wv in expected]
        assert [describe(trusted, v) for v in landed] == \
            [describe(ref_trusted, v) for v in ref_landed]
        assert [describe(trusted, o) for o in trusted.heap[start:]] == \
            [describe(ref_trusted, o) for o in ref_trusted.heap[start:]]
        assert trusted.bytes_since_gc == ref_trusted.bytes_since_gc
        assert list(trusted.proxy_table) == list(ref_trusted.proxy_table)

    def test_a_home_object_is_minted_once(self):
        rt, notes, _ = peers()
        untrusted, trusted = rt.isolates[UNTRUSTED], rt.isolates[TRUSTED]
        values = [notes[1], notes[0], notes[1]]
        note = CLASS_IDS["Note"]
        assert wire.measure(values, untrusted) == \
            sum(len(wire.encode(("href", h, note))) for h in (2, 1, 2))
        assert untrusted.registry == {1: notes[0], 2: notes[1]}
        landed = wire.land(values, untrusted, trusted)
        assert [describe(trusted, p) for p in landed] == \
            [("proxy", "Note", h) for h in (2, 1, 2)]
        assert landed[0] is landed[2]
