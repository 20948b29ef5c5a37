"""Fujisaki–Okamoto transform of TRE (paper §5, pointer to [11]).

The paper presents TRE as one-way/CPA-secure "for the sake of clarity"
and notes that "similar to the technique in [4], this transform can be
applied to our schemes to obtain chosen-ciphertext secure schemes".
This module applies it, following the BasicIdent → FullIdent recipe of
Boneh–Franklin:

Encrypt(M):
    σ ←$ {0,1}^k
    r = H3(σ, M)                      (derandomization)
    U = rG
    V = σ ⊕ H2(ê(r·asG, H1(T)))       (TRE-encrypt σ with randomness r)
    W = M ⊕ H4(σ)                      (one-time pad from σ)
    C = ⟨U, V, W⟩

Decrypt(C): recover σ from (U, V), recover M from W, recompute
r = H3(σ, M) and **reject unless U == rG** — the re-encryption check
that defeats chosen-ciphertext tampering, raised as
:class:`~repro.errors.DecryptionError`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.keys import ServerPublicKey, UserKeyPair, UserPublicKey
from repro.core.timeserver import TimeBoundKeyUpdate
from repro.core.tre import H2_TAG, KEMScheme
from repro.crypto.kdf import derive_key
from repro.ec.point import CurvePoint
from repro.encoding import BYTES, POINT, codec, xor_bytes
from repro.errors import DecryptionError

_H3_TAG = "repro:FO:H3"
_H4_LABEL = "repro:FO:H4"
SIGMA_BYTES = 32


@codec(u_point=POINT, sigma_masked=BYTES, message_masked=BYTES, time_label=BYTES)
@dataclass(frozen=True)
class FOTRECiphertext:
    """``⟨U, V, W⟩`` plus the public release-time label."""

    u_point: CurvePoint
    sigma_masked: bytes
    message_masked: bytes
    time_label: bytes


class FOTimedReleaseScheme(KEMScheme):
    """Chosen-ciphertext-secure TRE via the Fujisaki–Okamoto transform.

    A (receiver, T) warmed on the group
    (:meth:`~repro.core.tre.TimedReleaseScheme.precompute_sender`)
    serves :meth:`encrypt` too: FO's derandomized ``r`` does not change
    the cache key, so the output stays byte-identical.
    """

    def _derive_r(self, sigma: bytes, message: bytes, time_label: bytes) -> int:
        return self.group.hash_to_scalar(sigma, message, time_label, tag=_H3_TAG)

    def encrypt(
        self,
        message: bytes,
        receiver_public: UserPublicKey,
        server_public: ServerPublicKey,
        time_label: bytes,
        rng: random.Random,
        verify_receiver_key: bool = True,
    ) -> FOTRECiphertext:
        if verify_receiver_key:
            receiver_public.ensure_well_formed(self.group, server_public)
        sigma = rng.randbytes(SIGMA_BYTES)
        r = self._derive_r(sigma, message, time_label)
        u_point = self.group._mul_on_second_use(server_public.generator, r)
        k = self._kem._sender_key(receiver_public.as_generator, (time_label,), r)
        sigma_masked = xor_bytes(
            sigma, self.group.mask_bytes(k, SIGMA_BYTES, tag=H2_TAG)
        )
        message_masked = xor_bytes(
            message, derive_key(sigma, len(message), _H4_LABEL)
        )
        return FOTRECiphertext(u_point, sigma_masked, message_masked, time_label)

    def decrypt(
        self,
        ciphertext: FOTRECiphertext,
        receiver: UserKeyPair | int,
        update: TimeBoundKeyUpdate,
        server_public: ServerPublicKey,
    ) -> bytes:
        """Decrypt and *verify*; any tampering raises DecryptionError."""
        update.ensure_opens(ciphertext.time_label, self.group, server_public)
        if len(ciphertext.sigma_masked) != SIGMA_BYTES:
            raise DecryptionError("malformed sigma component")
        sigma = xor_bytes(
            ciphertext.sigma_masked,
            self._kem.decapsulate(
                ciphertext.u_point, receiver, update, key_bytes=SIGMA_BYTES
            ),
        )
        message = xor_bytes(
            ciphertext.message_masked,
            derive_key(sigma, len(ciphertext.message_masked), _H4_LABEL),
        )
        r = self._derive_r(sigma, message, ciphertext.time_label)
        u_point = self.group._mul_on_second_use(server_public.generator, r)
        if u_point != ciphertext.u_point:
            raise DecryptionError("FO re-encryption check failed")
        return message
