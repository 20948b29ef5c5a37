"""The service wire protocol: length-framed request/response messages.

Everything the node and client exchange is one :func:`~repro.encoding
.pack_chunks` frame whose first chunk is a one-byte message type, followed
by the message's fields as its :func:`~repro.encoding.codec` declaration
lays them out (``health_ok`` flattens its key/value pairs).  The
payloads reuse the library's own wire encodings (update bytes travel
exactly as ``TimeBoundKeyUpdate.to_bytes`` produced them), so the
client's authenticity check operates on the same bytes the archive
stores.

Malformed input **never** crashes a peer: every structural violation —
unknown type byte, wrong chunk count, bad framing — raises
:class:`~repro.errors.DecodingError` from :func:`decode_message`, which
the client treats as a transient transport failure (corrupt bytes on
the wire) and the node answers with an ``error`` response.

Message catalogue:

=============  ==========================  ==============================
Type           Fields                      Meaning
=============  ==========================  ==============================
get_update     label                       fetch ``I_T`` for one label
get_archive    after                       catch-up: all updates with
                                           label > ``after``
health         —                           liveness/readiness probe
update         update_bytes                one ``I_T``
archive        update_bytes...             the requested backlog
health_ok      key=value pairs             probe answer
error          code, detail                failure; ``code`` selects the
                                           transient/permanent class
announce       update_bytes                push broadcast of a fresh
                                           ``I_T``
=============  ==========================  ==============================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.encoding import (
    BYTES, codec, decode_fields, encode_fields, many, pack_chunks, unpack_chunks,
)
from repro.errors import (
    DecodingError,
    PermanentServiceError,
    ServiceUnavailableError,
)

# Type bytes.  Requests are < 0x40, pushes 0x40-0x7f, responses >= 0x80.
GET_UPDATE = 0x01
GET_ARCHIVE = 0x02
HEALTH = 0x03
ANNOUNCE = 0x41
UPDATE = 0x81
ARCHIVE = 0x82
HEALTH_OK = 0x83
ERROR = 0xFF

# Error codes carried by `error` responses.  The code — not the detail
# string — decides which exception class the client raises.
ERR_UNAVAILABLE = b"unavailable"  # not published yet / node restarting
ERR_BAD_REQUEST = b"bad-request"  # malformed or unknown request

_ERROR_CLASSES = {
    ERR_UNAVAILABLE: ServiceUnavailableError,
    ERR_BAD_REQUEST: PermanentServiceError,
}


@codec(label=BYTES)
@dataclass(frozen=True)
class GetUpdate:
    label: bytes


@codec(after=BYTES)
@dataclass(frozen=True)
class GetArchive:
    after: bytes = b""


@codec()
@dataclass(frozen=True)
class Health:
    pass


@codec(update_bytes=BYTES)
@dataclass(frozen=True)
class Announce:
    update_bytes: bytes


@codec(update_bytes=BYTES)
@dataclass(frozen=True)
class UpdateResponse:
    update_bytes: bytes


@codec(update_blobs=many(BYTES))
@dataclass(frozen=True)
class ArchiveResponse:
    update_blobs: tuple[bytes, ...]


@dataclass(frozen=True)
class HealthResponse:
    fields: tuple[tuple[bytes, bytes], ...]

    def as_dict(self) -> dict[bytes, bytes]:
        return dict(self.fields)


@codec(code=BYTES, detail=BYTES)
@dataclass(frozen=True)
class ErrorResponse:
    code: bytes
    detail: bytes

    def to_exception(self) -> Exception:
        """The typed exception this error response stands for.

        Unknown codes degrade to the *transient* class: a peer speaking
        a newer protocol revision should be retried, not abandoned.
        """
        cls = _ERROR_CLASSES.get(self.code, ServiceUnavailableError)
        return cls(self.detail.decode("utf-8", "replace"))


Message = (
    GetUpdate
    | GetArchive
    | Health
    | Announce
    | UpdateResponse
    | ArchiveResponse
    | HealthResponse
    | ErrorResponse
)


_MESSAGES = {
    GET_UPDATE: GetUpdate,
    GET_ARCHIVE: GetArchive,
    HEALTH: Health,
    ANNOUNCE: Announce,
    UPDATE: UpdateResponse,
    ARCHIVE: ArchiveResponse,
    HEALTH_OK: HealthResponse,
    ERROR: ErrorResponse,
}
_TYPE_BYTES = {cls: bytes([kind]) for kind, cls in _MESSAGES.items()}


def encode_message(message: Message) -> bytes:
    type_byte = _TYPE_BYTES.get(type(message))
    if type_byte is None:
        raise PermanentServiceError(f"cannot encode {type(message).__name__}")
    if type(message) is HealthResponse:
        body = [part for pair in message.fields for part in pair]
    else:
        body = encode_fields(message, None)
    return pack_chunks(type_byte, *body)


def decode_message(data: bytes) -> Message:
    """Parse one wire frame; :class:`DecodingError` on anything malformed."""
    chunks = unpack_chunks(data)
    if not chunks or len(chunks[0]) != 1:
        raise DecodingError("service message must start with a type byte")
    cls = _MESSAGES.get(chunks[0][0])
    if cls is None:
        raise DecodingError(f"unknown service message type 0x{chunks[0][0]:02x}")
    body = chunks[1:]
    if cls is HealthResponse:
        if len(body) % 2:
            raise DecodingError("health_ok needs key/value pairs")
        return HealthResponse(tuple(zip(body[::2], body[1::2])))
    return decode_fields(cls, None, body)
