"""Multi-server TRE (paper §5.3.5): distributing trust over N time servers.

A single colluding server could leak ``I_T`` early.  With N servers
(each with its own generator ``G_i`` and secret ``s_i``) the sender
encrypts so that *all* N updates ``s_i·H1(T)`` are needed:

* the receiver publishes one component pair ``(aG_i, a·s_iG_i)`` per
  server (each verifiable exactly like a single-server key);
* the ciphertext is ``⟨rG_1, ..., rG_N, M ⊕ H2(K)⟩`` with
  ``K = Π_i ê(G_i, H1(T))^{r·a·s_i}``;
* the receiver reconstructs ``K = Π_i ê(rG_i, s_i·H1(T))^a``.

An adversary must now corrupt every one of the N servers to open the
message early.  Cost is linear in N (one extra point per ciphertext and
one extra pairing per server at each end) — experiment E5's subject.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.keys import ServerPublicKey, UserPublicKey
from repro.crypto.redact import redacted_repr
from repro.core.timeserver import TimeBoundKeyUpdate
from repro.core.tre import H2_TAG, TimedReleaseScheme
from repro.ec.point import CurvePoint
from repro.encoding import BYTES, POINT, codec, seq, xor_bytes
from repro.errors import (
    EncodingError,
    KeyValidationError,
    ParameterError,
    UpdateVerificationError,
)
from repro.pairing.api import PairingGroup


@redacted_repr("components")
@dataclass(frozen=True)
class MultiServerUserKeyPair:
    """Secret ``a`` plus one ``(aG_i, a·s_iG_i)`` component per server."""

    private: int
    components: tuple[UserPublicKey, ...]

    @classmethod
    def generate(
        cls,
        group: PairingGroup,
        server_publics: list[ServerPublicKey],
        rng: random.Random,
    ) -> "MultiServerUserKeyPair":
        if not server_publics:
            raise ParameterError("need at least one time server")
        a = group.random_scalar(rng)
        components = tuple(
            UserPublicKey(
                group.mul(pk.generator, a), group.mul(pk.s_generator, a)
            )
            for pk in server_publics
        )
        return cls(a, components)

    @property
    def public(self) -> tuple[UserPublicKey, ...]:
        return self.components


@codec(u_points=seq(POINT), masked=BYTES, time_label=BYTES)
@dataclass(frozen=True)
class MultiServerCiphertext:
    """``⟨rG_1, ..., rG_N, V⟩`` plus the public release-time label."""

    u_points: tuple[CurvePoint, ...]
    masked: bytes
    time_label: bytes


class MultiServerTimedReleaseScheme:
    """TRE with the trust assumption split across N passive time servers."""

    def __init__(self, group: PairingGroup, server_publics: list[ServerPublicKey]):
        if not server_publics:
            raise ParameterError("need at least one time server")
        self.group = group
        self.server_publics = list(server_publics)
        self._kem = TimedReleaseScheme(group)

    @property
    def server_count(self) -> int:
        return len(self.server_publics)

    def verify_user_key(self, components: tuple[UserPublicKey, ...]) -> None:
        """Sender-side validation: every component must be well-formed
        *and* share the same secret ``a`` (checked pairwise through
        ``ê(aG_i, aG_j)``-free cross pairings on the generators)."""
        if len(components) != self.server_count:
            raise KeyValidationError(
                f"expected {self.server_count} key components, got {len(components)}"
            )
        for component, server_public in zip(components, self.server_publics):
            component.ensure_well_formed(self.group, server_public)
        # Same-`a` linkage across servers: ê(aG_i, G_j) == ê(G_i, aG_j),
        # each a single multi-pairing ratio check.
        first = components[0]
        first_pk = self.server_publics[0]
        for component, server_public in zip(components[1:], self.server_publics[1:]):
            if not self.group.pair_ratio_is_one(
                ((first.a_generator, server_public.generator),),
                ((first_pk.generator, component.a_generator),),
            ):
                raise KeyValidationError(
                    "key components use different secrets across servers"
                )

    def encrypt(
        self,
        message: bytes,
        receiver_components: tuple[UserPublicKey, ...],
        time_label: bytes,
        rng: random.Random,
        verify_receiver_key: bool = True,
    ) -> MultiServerCiphertext:
        if verify_receiver_key:
            self.verify_user_key(receiver_components)
        r = self.group.random_scalar(rng)
        u_points = tuple(
            self.group._mul_on_second_use(pk.generator, r)
            for pk in self.server_publics
        )
        # K = ê(r · Σ a·s_iG_i, H1(T)) = Π ê(G_i, H1(T))^{r·a·s_i}: the
        # §5.1 sender key with X = Σ a·s_iG_i.
        combined = self.group.identity()
        for component in receiver_components:
            combined = self.group.add(combined, component.as_generator)
        k = self._kem._sender_key(combined, (time_label,), r)
        mask = self.group.mask_bytes(k, len(message), tag=H2_TAG)
        return MultiServerCiphertext(u_points, xor_bytes(message, mask), time_label)

    def decrypt(
        self,
        ciphertext: MultiServerCiphertext,
        private: int,
        updates: list[TimeBoundKeyUpdate],
        verify_updates: bool = True,
    ) -> bytes:
        """Needs one update per server: ``K = Π ê(rG_i, s_i·H1(T))^a``.

        The N-fold pairing product is one multi-pairing — N Miller
        loops in lockstep, one final exponentiation — so the per-server
        decryption overhead drops from a full pairing to a Miller loop.
        """
        if len(updates) != self.server_count:
            raise UpdateVerificationError(
                f"need {self.server_count} updates, got {len(updates)}"
            )
        if len(ciphertext.u_points) != self.server_count:
            raise EncodingError("ciphertext server count mismatch")
        if verify_updates:
            for update, server_public in zip(updates, self.server_publics):
                update.ensure_opens(ciphertext.time_label, self.group, server_public)
        k = self.group.multi_pair(
            [
                (u_point, update.point)
                for u_point, update in zip(ciphertext.u_points, updates)
            ]
        )
        k = k ** private
        mask = self.group.mask_bytes(k, len(ciphertext.masked), tag=H2_TAG)
        return xor_bytes(ciphertext.masked, mask)
