"""Tests for the shared byte-encoding helpers."""

from dataclasses import dataclass, field

import pytest
from hypothesis import given, strategies as st

from repro.encoding import (
    BYTES,
    U16,
    byte_length,
    codec,
    int_from_bytes,
    int_to_bytes,
    many,
    pack_chunks,
    unpack_chunks,
    xor_bytes,
)
from repro.errors import DecodingError, EncodingError


class TestIntBytes:
    def test_roundtrip(self):
        assert int_from_bytes(int_to_bytes(12345, 4)) == 12345

    def test_exact_width(self):
        assert int_to_bytes(1, 8) == b"\x00" * 7 + b"\x01"

    def test_negative_raises(self):
        with pytest.raises(EncodingError):
            int_to_bytes(-1, 4)

    def test_overflow_raises(self):
        with pytest.raises(EncodingError):
            int_to_bytes(256, 1)

    def test_byte_length(self):
        assert byte_length(0) == 1
        assert byte_length(255) == 1
        assert byte_length(256) == 2

    @given(st.integers(0, 2**128 - 1))
    def test_roundtrip_property(self, n):
        assert int_from_bytes(int_to_bytes(n, 16)) == n


class TestChunkFraming:
    def test_roundtrip(self):
        chunks = [b"", b"a", b"hello", b"\x00" * 100]
        assert unpack_chunks(pack_chunks(*chunks)) == chunks

    def test_empty(self):
        assert unpack_chunks(pack_chunks()) == []

    def test_unambiguous(self):
        assert pack_chunks(b"ab", b"c") != pack_chunks(b"a", b"bc")

    def test_truncated_count(self):
        with pytest.raises(EncodingError):
            unpack_chunks(b"\x00")

    def test_truncated_chunk(self):
        data = pack_chunks(b"hello")[:-2]
        with pytest.raises(EncodingError):
            unpack_chunks(data)

    def test_trailing_garbage(self):
        with pytest.raises(EncodingError):
            unpack_chunks(pack_chunks(b"x") + b"junk")

    def test_overrun_length(self):
        bad = (1).to_bytes(4, "big") + (100).to_bytes(4, "big") + b"short"
        with pytest.raises(EncodingError):
            unpack_chunks(bad)

    @given(st.lists(st.binary(max_size=50), max_size=8))
    def test_roundtrip_property(self, chunks):
        assert unpack_chunks(pack_chunks(*chunks)) == chunks


def _xor_oracle(a, b) -> bytes:
    """The former byte-at-a-time implementation, kept as the oracle."""
    return bytes(x ^ y for x, y in zip(a, b))


@st.composite
def _equal_length_pairs(draw):
    """Equal-length pairs of 0-70 bytes, often padded with zero bytes."""
    length = draw(st.integers(0, 70))
    a = draw(st.binary(min_size=length, max_size=length))
    b = draw(st.binary(min_size=length, max_size=length))
    lead = draw(st.integers(0, length))
    trail = draw(st.integers(0, length - lead))
    zeros_a, zeros_b = draw(st.booleans()), draw(st.booleans())
    if zeros_a:
        a = bytes(lead) + a[lead:length - trail] + bytes(trail)
    if zeros_b:
        b = bytes(lead) + b[lead:length - trail] + bytes(trail)
    return a, b


class TestXor:
    def test_basic(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_mismatch_raises(self):
        with pytest.raises(EncodingError):
            xor_bytes(b"a", b"ab")

    def test_every_length_matches_oracle(self):
        for length in range(71):
            a = bytes((37 * i + 11) & 0xFF for i in range(length))
            b = bytes((101 * i + 5) & 0xFF for i in range(length))
            assert xor_bytes(a, b) == _xor_oracle(a, b)
            assert xor_bytes(a, a) == bytes(length)

    def test_zero_bytes_are_kept(self):
        assert xor_bytes(b"\x00\x00\x01", b"\x00\x00\x02") == b"\x00\x00\x03"
        assert xor_bytes(b"\x01\x00\x00", b"\x02\x00\x00") == b"\x03\x00\x00"
        assert xor_bytes(b"\x80\x00", b"\x80\x00") == b"\x00\x00"
        assert xor_bytes(b"", b"") == b""

    @given(_equal_length_pairs())
    def test_matches_oracle(self, pair):
        a, b = pair
        expected = _xor_oracle(a, b)
        assert xor_bytes(a, b) == expected
        assert xor_bytes(bytearray(a), memoryview(b)) == expected
        assert xor_bytes(memoryview(a), bytearray(b)) == expected
        assert type(xor_bytes(bytearray(a), bytearray(b))) is bytes

    @given(st.binary(max_size=70), st.binary(max_size=70))
    def test_unequal_lengths_raise(self, a, b):
        if len(a) == len(b):
            b += b"\x00"
        with pytest.raises(EncodingError):
            xor_bytes(a, b)
        with pytest.raises(EncodingError):
            xor_bytes(bytearray(a), memoryview(b))


@codec(version=U16, items=many(BYTES, least=1), tail=BYTES)
@dataclass(frozen=True)
class _Spread:
    version: int
    items: tuple[bytes, ...]
    tail: bytes
    cache: object = field(default=None, init=False, compare=False)


class TestCodec:
    def test_layout_is_one_chunk_per_field_and_one_per_item(self):
        value = _Spread(7, (b"a", b"bc"), b"z")
        blob = value.to_bytes(None)
        assert blob == pack_chunks(b"\x00\x07", b"a", b"bc", b"z")
        assert _Spread.from_bytes(None, blob) == value
        assert value.size_bytes(None) == len(blob)

    @pytest.mark.parametrize("chunks", [
        (b"\x00\x07", b"z"),
        (b"\x07", b"a", b"z"),
    ], ids=["too-few-items", "short-integer"])
    def test_malformed_frames_raise_decoding_error(self, chunks):
        with pytest.raises(DecodingError):
            _Spread.from_bytes(None, pack_chunks(*chunks))

    @pytest.mark.parametrize("layout", [
        {"version": U16, "tail": BYTES},
        {"items": many(BYTES), "version": U16, "tail": BYTES},
        {"version": U16, "items": many(BYTES), "tail": many(BYTES)},
    ], ids=["missing-field", "wrong-order", "two-many"])
    def test_layout_must_match_the_constructor_fields(self, layout):
        @dataclass(frozen=True)
        class Unsent:
            version: int
            items: tuple[bytes, ...]
            tail: bytes

        with pytest.raises(TypeError):
            codec(**layout)(Unsent)
