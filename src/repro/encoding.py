"""Byte-level encoding helpers shared across the library.

All serialization in this library is explicit, fixed-width, big-endian.
These helpers centralize the integer/byte conversions and the
length-prefixed framing used by ciphertext and key encodings so that every
module frames data the same way.
"""

from __future__ import annotations

from repro.errors import DecodingError, EncodingError


def int_to_bytes(value: int, length: int) -> bytes:
    """Encode a non-negative integer as exactly ``length`` big-endian bytes.

    Raises :class:`EncodingError` if the value is negative or too large to
    fit, rather than silently truncating.
    """
    if value < 0:
        raise EncodingError(f"cannot encode negative integer {value}")
    try:
        return value.to_bytes(length, "big")
    except OverflowError as exc:
        raise EncodingError(
            f"integer of {value.bit_length()} bits does not fit in "
            f"{length} bytes"
        ) from exc


def int_from_bytes(data: bytes) -> int:
    """Decode a big-endian byte string into a non-negative integer."""
    return int.from_bytes(data, "big")


def byte_length(value: int) -> int:
    """Number of bytes needed to hold ``value`` (at least 1)."""
    return max(1, (value.bit_length() + 7) // 8)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings.

    One whole-buffer big-int XOR: the conversions and the XOR run in C,
    and the fixed output length keeps leading and trailing zero bytes.
    """
    if len(a) != len(b):
        raise EncodingError(
            f"xor_bytes requires equal lengths, got {len(a)} and {len(b)}"
        )
    return (
        int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    ).to_bytes(len(a), "little")


def pack_chunks(*chunks: bytes) -> bytes:
    """Frame chunks as ``count || (len || bytes)*`` with 4-byte lengths.

    The inverse is :func:`unpack_chunks`.  Used by ciphertexts and composite
    keys so that parsing is unambiguous regardless of chunk contents.
    """
    parts = [len(chunks).to_bytes(4, "big")]
    for chunk in chunks:
        parts.append(len(chunk).to_bytes(4, "big"))
        parts.append(chunk)
    return b"".join(parts)


def unpack_chunks(data: bytes) -> list[bytes]:
    """Parse a byte string produced by :func:`pack_chunks`."""
    if len(data) < 4:
        raise DecodingError("truncated chunk framing: missing count")
    count = int.from_bytes(data[:4], "big")
    offset = 4
    chunks: list[bytes] = []
    for index in range(count):
        if offset + 4 > len(data):
            raise DecodingError(f"truncated chunk framing at chunk {index}")
        length = int.from_bytes(data[offset:offset + 4], "big")
        offset += 4
        if offset + length > len(data):
            raise DecodingError(f"chunk {index} overruns buffer")
        chunks.append(data[offset:offset + length])
        offset += length
    if offset != len(data):
        raise DecodingError(f"{len(data) - offset} trailing bytes after chunks")
    return chunks
