import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epart.errors import MarshalError
from epart.runtime import wire


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
        rng = random.Random(99)
        values = [random_wire_value(rng) for _ in range(6)]
        blob = b"".join(wire.encode(v) for v in values)
        assert wire.decode_sequence(blob, 6) == values

    def test_sequence_wrong_count(self):
        blob = wire.encode(("int", 1)) * 2
        with pytest.raises(MarshalError):
            wire.decode_sequence(blob, 1)
        with pytest.raises(MarshalError):
            wire.decode_sequence(blob, 3)


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
