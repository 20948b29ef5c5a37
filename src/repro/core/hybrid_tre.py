"""KEM-DEM wrapping of TRE for arbitrary-length messages.

The base scheme's ``M ⊕ H2(K)`` masking already handles any length, but
a real deployment wants integrity too.  Here TRE acts as the key
encapsulation mechanism and the encrypt-then-MAC DEM from
:mod:`repro.crypto.authenc` carries the payload:

    ⟨U, AEAD_{K}(M)⟩  with  K = H2(ê(r·asG, H1(T)))

Integrity gives the receiver a *definitive* wrong-update signal — with
the bare scheme a mismatched update just yields garbage bytes; here it
raises :class:`~repro.errors.DecryptionError`.  (This is authenticated
encryption, not CCA security of the public-key layer; for that see the
FO and REACT modules.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.keys import ServerPublicKey, UserKeyPair, UserPublicKey
from repro.core.timeserver import TimeBoundKeyUpdate
from repro.core.tre import KEMScheme
from repro.crypto.authenc import aead_decrypt, aead_encrypt
from repro.ec.point import CurvePoint
from repro.encoding import BYTES, POINT, codec

_KEY_BYTES = 32


@codec(u_point=POINT, sealed=BYTES, time_label=BYTES)
@dataclass(frozen=True)
class HybridTRECiphertext:
    """``⟨U, sealed⟩`` where ``sealed`` is AEAD ciphertext-plus-tag."""

    u_point: CurvePoint
    sealed: bytes
    time_label: bytes


class HybridTimedReleaseScheme(KEMScheme):
    """TRE-KEM + encrypt-then-MAC DEM."""

    def encrypt(
        self,
        message: bytes,
        receiver_public: UserPublicKey,
        server_public: ServerPublicKey,
        time_label: bytes,
        rng: random.Random,
        verify_receiver_key: bool = True,
    ) -> HybridTRECiphertext:
        key, u_point = self._kem.encapsulate(
            receiver_public,
            server_public,
            time_label,
            rng,
            key_bytes=_KEY_BYTES,
            verify_receiver_key=verify_receiver_key,
        )
        # The nonce may be constant: each encapsulation derives a fresh key.
        sealed = aead_encrypt(key, b"tre", message, associated_data=time_label)
        return HybridTRECiphertext(u_point, sealed, time_label)

    def decrypt(
        self,
        ciphertext: HybridTRECiphertext,
        receiver: UserKeyPair | int,
        update: TimeBoundKeyUpdate,
        server_public: ServerPublicKey | None = None,
    ) -> bytes:
        if server_public is not None:
            update.ensure_opens(ciphertext.time_label, self.group, server_public)
        key = self._kem.decapsulate(
            ciphertext.u_point, receiver, update, key_bytes=_KEY_BYTES
        )
        return aead_decrypt(
            key, b"tre", ciphertext.sealed, associated_data=ciphertext.time_label
        )
