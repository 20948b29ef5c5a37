"""A SHA-256 counter-mode stream cipher.

``keystream(key, nonce, length)`` produces a pseudo-random pad;
``stream_xor`` applies it.  XOR symmetry means encryption and decryption
are the same operation, exactly like the ``M ⊕ H2(K)`` masking step in
the paper's schemes — this module is the general-length extension of
that idea used by the hybrid DEM.
"""

from __future__ import annotations

import hashlib

from repro.encoding import xor_bytes
from repro.errors import ParameterError

_BLOCK = 32


def keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """``length`` pad bytes from ``SHA256(key || nonce || counter)`` blocks."""
    if length < 0:
        raise ParameterError("length must be non-negative")
    # The length-framed prefix is absorbed once; each block copies that
    # state and appends only its fixed-width counter.
    prefix = hashlib.sha256(len(key).to_bytes(2, "big"))
    prefix.update(key)
    prefix.update(len(nonce).to_bytes(2, "big"))
    prefix.update(nonce)
    blocks = []
    for counter in range((length + _BLOCK - 1) // _BLOCK):
        block = prefix.copy()
        block.update(counter.to_bytes(8, "big"))
        blocks.append(block.digest())
    return b"".join(blocks)[:length]


def stream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Encrypt or decrypt ``data`` under ``(key, nonce)``."""
    return xor_bytes(data, keystream(key, nonce, len(data)))
