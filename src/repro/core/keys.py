"""Key material for the TRE scheme (paper §5.1, "Key Generation").

* The **server** picks its own generator ``G`` of ``G1`` and a secret
  ``s``; its public key is the pair ``(G, sG)``.
* A **user** picks a secret ``a`` (optionally derived from a password via
  a hash, as the paper suggests) and publishes ``(aG, asG)``.  The
  ``asG`` half ties the key to the chosen time server, which is what
  forces decryption to involve the server's time-bound key update.

``UserPublicKey.verify_well_formed`` is the pairing check from Encrypt
step 1: ``ê(aG, sG) == ê(G, asG)``.  A sender must run it before
encrypting; a malformed key (e.g. ``(aG, bG)`` with ``b != a*s``) could
otherwise let the receiver decrypt without the update.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto.kdf import derive_key
from repro.crypto.redact import redacted_repr
from repro.ec.point import CurvePoint
from repro.encoding import POINT, codec
from repro.errors import KeyValidationError
from repro.pairing.api import PairingGroup


def _cofactor_multiple(key, slot: str, point: CurvePoint, group: PairingGroup) -> CurvePoint:
    """``(c mod q)·point``, derived once and kept in ``key``'s ``slot``, a pure
    function of the key outside equality, hash, repr and the wire (set
    past the frozen ``__setattr__``)."""
    if getattr(key, slot) is None:
        object.__setattr__(key, slot, group.mul(point, group.h1_cofactor))
    return getattr(key, slot)


@codec(generator=POINT, s_generator=POINT)
@dataclass(frozen=True)
class ServerPublicKey:
    """The time server's public key ``PK_S = (G, sG)``."""

    generator: CurvePoint
    s_generator: CurvePoint
    _cofactor_s_generator: CurvePoint | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def cofactor_s_generator(self, group: PairingGroup) -> CurvePoint:
        """``D = (c mod q)·sG``, the update check's fixed G1 argument (see
        :meth:`~repro.core.bls.BLSSignatureScheme.verify`)."""
        return _cofactor_multiple(self, "_cofactor_s_generator", self.s_generator, group)


@redacted_repr("public")
@dataclass(frozen=True)
class ServerKeyPair:
    """The time server's key pair: private ``s`` plus ``(G, sG)``."""

    private: int
    public: ServerPublicKey

    @classmethod
    def generate(
        cls, group: PairingGroup, rng: random.Random, generator: CurvePoint | None = None
    ) -> "ServerKeyPair":
        """Server key generation (§5.1): pick ``G`` and ``s``, publish both.

        The paper lets the server pick any generator; by default we pick
        a random one (a random scalar multiple of the library generator,
        which generates the whole prime-order subgroup).
        """
        if generator is None:
            generator = group.mul(group.generator, group.random_scalar(rng))
        s = group.random_scalar(rng)
        return cls(s, ServerPublicKey(generator, group.mul(generator, s)))


@codec(a_generator=POINT, as_generator=POINT)
@dataclass(frozen=True)
class UserPublicKey:
    """A receiver's public key ``PK_U = (aG, asG)``."""

    a_generator: CurvePoint
    as_generator: CurvePoint
    _cofactor_as_generator: CurvePoint | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def cofactor_as_generator(self, group: PairingGroup) -> CurvePoint:
        """``(c mod q)·asG``, the warm sender's fixed G1 argument (see
        :meth:`~repro.core.tre.TimedReleaseScheme.precompute_sender`)."""
        return _cofactor_multiple(self, "_cofactor_as_generator", self.as_generator, group)

    def verify_well_formed(
        self, group: PairingGroup, server_public: ServerPublicKey
    ) -> bool:
        """Encrypt step 1: check ``ê(aG, sG) == ê(G, asG)``.

        True exactly when the second component really is ``a × sG``, so
        the receiver genuinely needs the server's update to decrypt.
        Checked as one multi-pairing ratio (a single combined Miller
        loop and final exponentiation); keys containing the point at
        infinity (``a == 0`` degenerate keys) are rejected outright.

        A sender holds the server key for its whole life, so half of
        every check pairs against fixed points.  The first check against
        ``server_public`` on ``group`` runs both Miller loops fused; the
        second records the lines of ``G`` and ``sG`` in the group cache
        (symmetry swaps ``sG`` into the fixed slot), and every later one
        is a single evaluation of both tables plus one final
        exponentiation.  A one-shot sender thus pays nothing for a table
        it never reuses.  The answer is the same on every path.
        """
        group._precompute_on_second_use(
            server_public.generator, server_public.s_generator
        )
        return group.pair_ratio_is_one(
            ((self.a_generator, server_public.s_generator),),
            ((server_public.generator, self.as_generator),),
        )

    def ensure_well_formed(
        self, group: PairingGroup, server_public: ServerPublicKey
    ) -> None:
        if not self.verify_well_formed(group, server_public):
            raise KeyValidationError(
                "receiver public key is not of the form (aG, a*sG)"
            )


@redacted_repr("public")
@dataclass(frozen=True)
class UserKeyPair:
    """A receiver's key pair: private ``a`` plus ``(aG, asG)``."""

    private: int
    public: UserPublicKey

    @classmethod
    def generate(
        cls,
        group: PairingGroup,
        server_public: ServerPublicKey,
        rng: random.Random,
    ) -> "UserKeyPair":
        """User key generation (§5.1) against a chosen time server."""
        a = group.random_scalar(rng)
        # lint: allow[RP202] from_secret's a==0 rejection branches on the
        # secret, but it reveals only key invalidity (probability ~2^-64)
        # and is required for correctness.
        return cls.from_secret(group, server_public, a)

    @classmethod
    def from_password(
        cls, group: PairingGroup, server_public: ServerPublicKey, password: str
    ) -> "UserKeyPair":
        """Derive ``a`` from a human-memorable password (§5.1 note).

        The paper suggests "applying a good hash function" to the
        password; we KDF it into ``Z_q^*``.
        """
        digest = derive_key(password.encode(), 2 * group.scalar_bytes, "repro:pwkey")
        a = int.from_bytes(digest, "big") % (group.q - 1) + 1
        return cls.from_secret(group, server_public, a)

    @classmethod
    def from_secret(
        cls, group: PairingGroup, server_public: ServerPublicKey, a: int
    ) -> "UserKeyPair":
        a %= group.q
        if a == 0:
            raise KeyValidationError("user secret must be in Z_q^*")
        public = UserPublicKey(
            group.mul(server_public.generator, a),
            group.mul(server_public.s_generator, a),
        )
        return cls(a, public)

    def rekey_to_server(
        self, group: PairingGroup, new_server_public: ServerPublicKey
    ) -> "UserKeyPair":
        """Re-derive the public key against a different time server.

        Used by the §5.3.4 server-change flow: the same secret ``a``
        yields ``(aG', as'G')`` under the new server, and third parties
        can link it to the CA-certified old key without re-certification
        (see :mod:`repro.core.certification`).
        """
        # lint: allow[RP202] same a==0 rejection branch as in generate():
        # reveals only key invalidity, never taken for a valid keypair.
        return self.from_secret(group, new_server_public, self.private)
