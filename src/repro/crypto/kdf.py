"""A counter-mode key-derivation function (NIST SP 800-108 style).

``derive_key(secret, length, label)`` expands ``secret`` into ``length``
bytes bound to an ASCII ``label``; different labels yield independent
keys, which is how one pairing value can safely feed both the cipher and
the MAC in :mod:`repro.crypto.authenc`.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.errors import ParameterError

_BLOCK = 32  # SHA-256 output size.


def derive_key(secret: bytes, length: int, label: str = "repro:kdf") -> bytes:
    """Derive ``length`` pseudo-random bytes from ``secret``.

    HMAC-SHA256 in counter mode: ``K_i = HMAC(secret, i || label)``.
    """
    if length < 0:
        raise ParameterError("length must be non-negative")
    blocks = []
    for counter in range((length + _BLOCK - 1) // _BLOCK):
        message = counter.to_bytes(4, "big") + label.encode()
        blocks.append(hmac.new(secret, message, hashlib.sha256).digest())
    return b"".join(blocks)[:length]


def derive_subkeys(secret: bytes, *labels: str) -> tuple[bytes, ...]:
    """Derive one independent 32-byte subkey per label."""
    return tuple(derive_key(secret, 32, label) for label in labels)
