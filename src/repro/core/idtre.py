"""ID-TRE — identity-based timed release encryption (paper §5.2).

The Chen-et-al. multi-trust-authority idea: the receiver's "public key"
is their identity string, the server doubles as the IBE private-key
generator, and the encryption point is the *sum* ``H1(ID) + H1(T)``.
The sender never forms that sum: its key ``ê(r·sG, H1(ID) + H1(T))``
is the §5.1 KEM's key for the two labels ``(ID, T)`` under ``X = sG``
(:meth:`~repro.core.tre.TimedReleaseScheme._sender_key`).  The receiver
combines their long-term key ``s·H1(ID)`` with the broadcast update
``s·H1(T)`` into ``s(H1(ID) + H1(T))`` and pairs once.

Key escrow is inherent: the server knows ``s`` and can decrypt anything
(demonstrated by :meth:`IdentityTimedReleaseScheme.server_decrypt`, and
contrasted with TRE in experiment E11).  The compensating advantages are
no receiver certificates and a cheaper decryption (one pairing, no GT
exponentiation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from repro.core.keys import ServerKeyPair, ServerPublicKey
from repro.core.timeserver import TimeBoundKeyUpdate
from repro.core.tre import H1_TAG, H2_TAG, TimedReleaseScheme
from repro.ec.point import CurvePoint
from repro.encoding import BYTES, POINT, codec, xor_bytes
from repro.pairing.api import PairingGroup


@codec(u_point=POINT, masked=BYTES, time_label=BYTES)
@dataclass(frozen=True)
class IDTRECiphertext:
    """``C = ⟨U, V⟩`` plus the public release-time label."""

    u_point: CurvePoint
    masked: bytes
    time_label: bytes


@dataclass(frozen=True)
class IDUserKey:
    """A user's extracted private key ``s·H1(ID)`` and their identity."""

    identity: bytes
    point: CurvePoint


class IdentityTimedReleaseScheme:
    """ID-TRE over a symmetric pairing group."""

    def __init__(self, group: PairingGroup):
        self.group = group
        self._kem = TimedReleaseScheme(group)

    def hash_identity(self, identity: bytes) -> CurvePoint:
        return self.group.hash_to_g1(identity, tag=H1_TAG)

    def precompute_sender(
        self,
        server_public: ServerPublicKey,
        identities: Iterable[bytes] = (),
        time_labels: Iterable[bytes] = (),
    ) -> None:
        """Warm the sender's fixed arguments for repeated encryption.

        §5.2 encryption multiplies only the fixed ``G`` by ``r``
        (``U = rG``), so ``G`` gets a fixed-base table; the sender key
        pairs ``sG`` itself.  With ``identities`` and ``time_labels``,
        ``ê(sG, H1(L))`` is cached with a GT table for each of them, so
        ``n`` identities and ``m`` times cost ``n + m`` pairings, and
        :meth:`encrypt` for any of the ``n·m`` pairs one fixed-base
        multiplication plus two table-driven GT exponentiations —
        byte-identical output.  The entries live on the group
        (:meth:`~repro.pairing.api.PairingGroup.precompute_pair_h1`);
        :meth:`~repro.pairing.api.PairingGroup.clear_precomputations`
        frees them.
        """
        self.group.precompute(server_public.generator)
        labels = [*identities, *time_labels]
        if labels:
            self.group.precompute_pair_h1(
                server_public.s_generator,
                server_public.cofactor_s_generator(self.group),
                labels,
            )

    def extract_user_key(
        self, server: ServerKeyPair, identity: bytes
    ) -> IDUserKey:
        """The server-as-PKG hands user ``ID`` the key ``s·H1(ID)``.

        This is the step that makes escrow inherent: the server computes
        (and therefore knows) every user's private key.
        """
        point = self.group.mul(self.hash_identity(identity), server.private)
        return IDUserKey(identity, point)

    def encrypt(
        self,
        message: bytes,
        identity: bytes,
        server_public: ServerPublicKey,
        time_label: bytes,
        rng: random.Random,
    ) -> IDTRECiphertext:
        """§5.2: ``K = ê(sG, H1(ID) + H1(T))^r``, ``C = ⟨rG, M ⊕ H2(K)⟩``."""
        r = self.group.random_scalar(rng)
        u_point = self.group._mul_on_second_use(server_public.generator, r)
        k = self._kem._sender_key(
            server_public.s_generator, (identity, time_label), r
        )
        mask = self.group.mask_bytes(k, len(message), tag=H2_TAG)
        return IDTRECiphertext(u_point, xor_bytes(message, mask), time_label)

    def decrypt(
        self,
        ciphertext: IDTRECiphertext,
        user_key: IDUserKey,
        update: TimeBoundKeyUpdate,
        server_public: ServerPublicKey | None = None,
    ) -> bytes:
        """Combine ``s·H1(ID) + s·H1(T)`` and pair once with ``U``."""
        if server_public is not None:
            update.ensure_opens(ciphertext.time_label, self.group, server_public)
        k_d = self.group.add(user_key.point, update.point)
        k = self.group.pair(ciphertext.u_point, k_d)
        mask = self.group.mask_bytes(k, len(ciphertext.masked), tag=H2_TAG)
        return xor_bytes(ciphertext.masked, mask)

    def server_decrypt(
        self, ciphertext: IDTRECiphertext, server: ServerKeyPair, identity: bytes
    ) -> bytes:
        """The escrow attack the paper warns about: the server, knowing
        ``s``, decrypts any user's ciphertext without any update."""
        k_e = self.group.add(
            self.hash_identity(identity),
            self.group.hash_to_g1(ciphertext.time_label, tag=H1_TAG),
        )
        k_d = self.group.mul(k_e, server.private)
        k = self.group.pair(ciphertext.u_point, k_d)
        mask = self.group.mask_bytes(k, len(ciphertext.masked), tag=H2_TAG)
        return xor_bytes(ciphertext.masked, mask)
