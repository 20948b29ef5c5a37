"""REACT conversion of TRE (paper §5, pointer to Okamoto–Pointcheval [18]).

The alternative CCA upgrade the paper mentions.  REACT keeps the
asymmetric part *randomized* (unlike FO's derandomization) and adds a
hash check binding everything together:

Encrypt(M):
    R ←$ {0,1}^k                       (random "asymmetric plaintext")
    c1 = TRE-Encrypt(R)                 (fresh randomness r)
    K  = G(R)                           (session key)
    c2 = M ⊕ KDF_K(|M|)
    c3 = H(R, M, c1, c2)                (the REACT checksum)

Decrypt: recover R from c1, M from c2, and reject unless c3 matches.
REACT never re-runs the asymmetric encryption, so decryption is cheaper
than FO's (no extra scalar multiplication) — experiment E8 measures
exactly this trade.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.keys import ServerPublicKey, UserKeyPair, UserPublicKey
from repro.core.timeserver import TimeBoundKeyUpdate
from repro.core.tre import KEMScheme, TRECiphertext
from repro.crypto.kdf import derive_key
from repro.encoding import BYTES, codec, nested, xor_bytes
from repro.errors import DecryptionError
from repro.pairing.hashing import hash_bytes

_G_LABEL = "repro:REACT:G"
_H_TAG = "repro:REACT:H"
R_BYTES = 32
CHECK_BYTES = 32


@codec(c1=nested(TRECiphertext), c2=BYTES, c3=BYTES)
@dataclass(frozen=True)
class ReactTRECiphertext:
    """``⟨c1, c2, c3⟩`` where ``c1`` is a plain TRE ciphertext of ``R``."""

    c1: TRECiphertext
    c2: bytes
    c3: bytes

    @property
    def time_label(self) -> bytes:
        return self.c1.time_label


class ReactTimedReleaseScheme(KEMScheme):
    """Chosen-ciphertext-secure TRE via the REACT conversion."""

    def _checksum(self, r_value: bytes, message: bytes, c1_bytes: bytes, c2: bytes) -> bytes:
        return hash_bytes(r_value, message, c1_bytes, c2, tag=_H_TAG)[:CHECK_BYTES]

    def encrypt(
        self,
        message: bytes,
        receiver_public: UserPublicKey,
        server_public: ServerPublicKey,
        time_label: bytes,
        rng: random.Random,
        verify_receiver_key: bool = True,
    ) -> ReactTRECiphertext:
        r_value = rng.randbytes(R_BYTES)
        c1 = self._kem.encrypt(
            r_value,
            receiver_public,
            server_public,
            time_label,
            rng,
            verify_receiver_key=verify_receiver_key,
        )
        session_key = derive_key(r_value, 32, _G_LABEL)
        c2 = xor_bytes(message, derive_key(session_key, len(message), _G_LABEL))
        c3 = self._checksum(r_value, message, c1.to_bytes(self.group), c2)
        return ReactTRECiphertext(c1, c2, c3)

    def decrypt(
        self,
        ciphertext: ReactTRECiphertext,
        receiver: UserKeyPair | int,
        update: TimeBoundKeyUpdate,
        server_public: ServerPublicKey,
    ) -> bytes:
        r_value = self._kem.decrypt(
            ciphertext.c1, receiver, update, server_public
        )
        if len(r_value) != R_BYTES:
            raise DecryptionError("malformed REACT asymmetric component")
        session_key = derive_key(r_value, 32, _G_LABEL)
        message = xor_bytes(
            ciphertext.c2, derive_key(session_key, len(ciphertext.c2), _G_LABEL)
        )
        expected = self._checksum(
            r_value, message, ciphertext.c1.to_bytes(self.group), ciphertext.c2
        )
        if expected != ciphertext.c3:
            raise DecryptionError("REACT checksum mismatch")
        return message
