"""Multi-recipient timed release broadcast (one ``U``, N KEM headers).

A sender addressing many receivers with the *same* message and release
time would naively run N independent TRE encryptions: N scalar
multiplications for the ``U_i = r_i G``, N pairings, and N copies of the
payload.  The broadcast mode shares everything that can be shared:

* **one** randomizer ``r`` and therefore **one** ``U = rG``;
* **one** DEM payload ``AEAD_{K_dem}(M)``;
* **N** per-recipient KEM headers, each wrapping ``K_dem`` under
  ``H2(ê(as_iG, H1(T))^r)`` — with each recipient's ``(as_iG, T)``
  warm on the group
  (:meth:`~repro.core.tre.TimedReleaseScheme.precompute_sender`), each
  header costs one table-driven GT exponentiation, no pairing;
* cold, **one** ``H1(T)``, **one** ``r·H1(T)`` and **one** recording
  of its Miller lines for all cold recipients, after which each header
  costs one evaluation of those lines and one final exponentiation,
  ``ê(as_iG, r·H1(T))`` — the same element by bilinearity and
  symmetry.  Fewer than
  :data:`~repro.core.tre.SHARED_H1_RECEIVERS` cold recipients are
  cheaper one by one: ``ê(as_iG, P′₀)^(c·r mod q)`` on ``H1(T)``'s map
  point each.

Sharing ``r`` across recipients is safe here for the same reason it is
in ElGamal-style multi-recipient KEMs: the per-recipient secrets
``ê(as_iG, H1(T))^r`` are independent one-way functions of the distinct
receiver keys, and the DEM key is wrapped (not reused as a mask) so a
recipient learns nothing about another's header.  Each header is bound
to ``(U, T)`` through the AEAD associated data, and a receiver opening
the wrong header gets a :class:`~repro.errors.DecryptionError` from the
tag check — never silent garbage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.keys import ServerPublicKey, UserKeyPair, UserPublicKey
from repro.core.timeserver import TimeBoundKeyUpdate
from repro.core.tre import H2_TAG, TimedReleaseScheme
from repro.crypto.authenc import aead_decrypt, aead_encrypt
from repro.ec.point import CurvePoint
from repro.encoding import BYTES, POINT, codec, many
from repro.errors import DecryptionError, ParameterError
from repro.pairing.api import PairingGroup

_KEY_BYTES = 32
_KEM_NONCE = b"tre-bc-kem"
_DEM_NONCE = b"tre-bc-dem"


@codec(u_point=POINT, time_label=BYTES, headers=many(BYTES, least=1), sealed=BYTES)
@dataclass(frozen=True)
class BroadcastCiphertext:
    """``⟨U, T, header_1..header_N, sealed⟩`` for N recipients.

    ``headers[i]`` wraps the DEM key for recipient ``i`` (the order the
    sender passed to :meth:`BroadcastTimedReleaseScheme.encrypt_broadcast`);
    ``sealed`` is the single shared AEAD payload.  Size grows by one
    constant-size header per recipient instead of one full ciphertext.
    """

    u_point: CurvePoint
    time_label: bytes
    headers: tuple[bytes, ...]
    sealed: bytes

    @property
    def recipients(self) -> int:
        return len(self.headers)


class BroadcastTimedReleaseScheme:
    """One-to-many TRE: shared ``U`` and payload, per-recipient headers."""

    def __init__(self, group: PairingGroup):
        self.group = group
        self._kem = TimedReleaseScheme(group)

    def encrypt_broadcast(
        self,
        message: bytes,
        receivers: Sequence[UserPublicKey],
        server_public: ServerPublicKey,
        time_label: bytes,
        rng: random.Random,
        verify_receiver_keys: bool = True,
    ) -> BroadcastCiphertext:
        """Encrypt ``message`` once for every receiver in ``receivers``.

        Exactly two rng draws regardless of N — the shared randomizer
        ``r`` and the DEM key — so repeated calls with a seeded rng are
        reproducible.  ``verify_receiver_keys=False`` skips the per-key
        well-formedness pairing check for pre-validated key sets.
        """
        if not receivers:
            raise ParameterError("broadcast needs at least one receiver")
        if verify_receiver_keys:
            for receiver_public in receivers:
                receiver_public.ensure_well_formed(self.group, server_public)
        r = self.group.random_scalar(rng)
        dem_key = rng.randbytes(_KEY_BYTES)
        u_point = self.group._mul_on_second_use(server_public.generator, r)
        header_ad = self.group.point_to_bytes(u_point) + time_label
        headers = []
        points = [receiver_public.as_generator for receiver_public in receivers]
        for k in self._kem._sender_keys(points, time_label, r):
            wrap_key = self.group.mask_bytes(k, _KEY_BYTES, tag=H2_TAG)
            headers.append(
                aead_encrypt(
                    wrap_key, _KEM_NONCE, dem_key, associated_data=header_ad
                )
            )
        sealed = aead_encrypt(
            dem_key, _DEM_NONCE, message, associated_data=time_label
        )
        return BroadcastCiphertext(u_point, time_label, tuple(headers), sealed)

    def open_header(
        self,
        ciphertext: BroadcastCiphertext,
        header_index: int,
        receiver: UserKeyPair | int,
        update: TimeBoundKeyUpdate,
    ) -> bytes:
        """Recover the DEM key from one header; raises on a wrong slot.

        A receiver whose key does not match ``headers[header_index]``
        fails the AEAD tag check — the cross-recipient rejection the
        tests pin down.
        """
        if not 0 <= header_index < len(ciphertext.headers):
            raise ParameterError(
                f"header index {header_index} out of range for "
                f"{len(ciphertext.headers)} recipients"
            )
        wrap_key = self._kem.decapsulate(
            ciphertext.u_point, receiver, update, key_bytes=_KEY_BYTES
        )
        header_ad = (
            self.group.point_to_bytes(ciphertext.u_point) + ciphertext.time_label
        )
        try:
            return aead_decrypt(
                wrap_key,
                _KEM_NONCE,
                ciphertext.headers[header_index],
                associated_data=header_ad,
            )
        except DecryptionError:
            raise DecryptionError(
                "broadcast header does not open for this receiver"
            ) from None

    def decrypt_broadcast(
        self,
        ciphertext: BroadcastCiphertext,
        header_index: int,
        receiver: UserKeyPair | int,
        update: TimeBoundKeyUpdate,
        server_public: ServerPublicKey | None = None,
    ) -> bytes:
        """Open header ``header_index`` and then the shared payload.

        Named ``decrypt_broadcast`` (mirroring :meth:`encrypt_broadcast`)
        rather than ``decrypt``: the header index is public routing
        information, unlike the secret-typed positional arguments of
        the single-recipient ``decrypt`` methods.
        """
        update.ensure_opens(ciphertext.time_label, self.group, server_public)
        dem_key = self.open_header(ciphertext, header_index, receiver, update)
        return aead_decrypt(
            dem_key,
            _DEM_NONCE,
            ciphertext.sealed,
            associated_data=ciphertext.time_label,
        )
