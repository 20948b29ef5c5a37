"""Byte-level encoding helpers shared across the library.

All serialization in this library is explicit, fixed-width, big-endian.
These helpers centralize the integer/byte conversions and the
length-prefixed framing used by ciphertext and key encodings so that every
module frames data the same way.

Every composite wire object is declared once with :func:`codec`: one
field kind per constructor field, in order.  The declaration derives the
object's ``to_bytes``, ``from_bytes`` and ``size_bytes``; the frame is
:func:`pack_chunks` of one chunk per field (a :func:`many` field spreads
over several), and every structural decode failure raises
:class:`DecodingError`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

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


# ----------------------------------------------------------------------
# Declarative codec.
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Kind:
    """One field's wire form: ``encode(group, value)`` gives its chunk and
    ``decode(group, chunk)`` validates and parses it back.  A :func:`many`
    field has a ``least`` item count and spreads over several chunks."""

    encode: Callable[[Any, Any], bytes]
    decode: Callable[[Any, bytes], Any]
    least: int | None = None


def _uint(width: int) -> Kind:
    def decode(group, chunk: bytes) -> int:
        if len(chunk) != width:
            raise DecodingError(f"expected a {width}-byte integer, got {len(chunk)}")
        return int.from_bytes(chunk, "big")

    return Kind(lambda group, value: int_to_bytes(value, width), decode)


def _bits(group, chunk: bytes) -> tuple[int, ...]:
    if any(bit > 1 for bit in chunk):
        raise DecodingError("path bits must be 0 or 1")
    return tuple(chunk)


POINT = Kind(
    lambda group, point: group.point_to_bytes(point),
    lambda group, chunk: group.point_from_bytes(chunk),
)
BYTES = Kind(lambda group, value: value, lambda group, chunk: chunk)
U16, U32, U64 = _uint(2), _uint(4), _uint(8)
BITS = Kind(lambda group, path: bytes(path), _bits)


def seq(kind: Kind) -> Kind:
    """A tuple of ``kind`` packed into one chunk."""
    return Kind(
        lambda group, values: pack_chunks(*(kind.encode(group, v) for v in values)),
        lambda group, chunk: tuple(kind.decode(group, c) for c in unpack_chunks(chunk)),
    )


def nested(cls: type) -> Kind:
    """Another wire object, as its own ``to_bytes`` frame."""
    return Kind(
        lambda group, value: value.to_bytes(group),
        lambda group, chunk: cls.from_bytes(group, chunk),
    )


def many(kind: Kind, least: int = 0) -> Kind:
    """A tuple of at least ``least`` items of ``kind``, one chunk each."""
    return dataclasses.replace(kind, least=least)


def encode_fields(obj, group) -> list[bytes]:
    """The chunks of a :func:`codec`-declared object, before framing."""
    chunks: list[bytes] = []
    for name, kind in type(obj).__wire__:
        if kind.least is None:
            chunks.append(kind.encode(group, getattr(obj, name)))
        else:
            chunks.extend(kind.encode(group, item) for item in getattr(obj, name))
    return chunks


def decode_fields(cls, group, chunks: list[bytes]):
    """Inverse of :func:`encode_fields`: validate ``chunks`` into ``cls``."""
    layout = cls.__wire__
    least = next((k.least for _, k in layout if k.least is not None), None)
    width = len(chunks) - len(layout) + 1  # the chunks a many() field takes
    if least is None and len(chunks) != len(layout):
        raise DecodingError(
            f"{cls.__name__} needs {len(layout)} field(s), got {len(chunks)}"
        )
    if least is not None and width < least:
        raise DecodingError(
            f"{cls.__name__} needs at least {len(layout) - 1 + least} "
            f"field(s), got {len(chunks)}"
        )
    values, at = [], 0
    for _, kind in layout:
        if kind.least is None:
            values.append(kind.decode(group, chunks[at]))
            at += 1
        else:
            values.append(tuple(kind.decode(group, c) for c in chunks[at:at + width]))
            at += width
    return cls(*values)


def codec(**layout: Kind):
    """Declare a dataclass's wire layout, one kind per constructor field.

    Installs ``to_bytes(group)``, the classmethod ``from_bytes(group,
    data)`` and ``size_bytes(group)`` (the length of ``to_bytes``).
    Fields with ``init=False`` stay off the wire; at most one field is a
    :func:`many`.
    """

    def install(cls):
        names = [f.name for f in dataclasses.fields(cls) if f.init]
        spread = [name for name, kind in layout.items() if kind.least is not None]
        if list(layout) != names or len(spread) > 1:
            raise TypeError(f"bad wire layout {list(layout)} for {cls.__name__}{names}")
        cls.__wire__ = tuple(layout.items())

        def to_bytes(self, group) -> bytes:
            return pack_chunks(*encode_fields(self, group))

        def from_bytes(cls, group, data: bytes):
            return decode_fields(cls, group, unpack_chunks(data))

        def size_bytes(self, group) -> int:
            return len(self.to_bytes(group))

        cls.to_bytes = to_bytes
        cls.from_bytes = classmethod(from_bytes)
        cls.size_bytes = size_bytes
        return cls

    return install
