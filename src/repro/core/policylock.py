"""Policy-lock encryption — the generalization of §5.3.2.

The time server "essentially sends out a signed message on T ∈ {0,1}*";
nothing in the construction cares that T denotes a time.  A *witness*
server can sign arbitrary condition strings ("It is an emergency",
"The receiver has completed task X"), and a sender can lock a message
under any such condition.

Beyond the paper's single-condition sketch, this module supports:

* **Conjunction** (ALL of ``C_1..C_m``): encrypt against the point sum
  ``Σ H1(C_j)``.  By bilinearity the receiver needs the *sum of the
  witness signatures* ``Σ s·H1(C_j) = s·Σ H1(C_j)``, i.e. every single
  condition attested — decryption is one pairing regardless of ``m``.
  The sender's key is the §5.1 KEM's for the conditions as labels,
  ``Π_j ê(r·asG, H1(C_j))``: one pairing per condition, or one GT
  exponentiation per condition the KEM has warmed.
* **Disjunction** (ANY of ``C_1..C_m``): encapsulate the same session
  key once per condition; any one attestation opens the message.
* **Threshold** (any ``t`` of ``C_1..C_m``): Shamir-share the session
  key over ``Z_q`` and encapsulate one share per condition; any ``t``
  attested conditions reconstruct the key, ``t-1`` reveal nothing.
  (AND and OR are the ``t=m`` and ``t=1`` corners, kept as dedicated
  code paths because they are cheaper.)

The witness server is just a :class:`~repro.core.timeserver.PassiveTimeServer`
signing condition strings instead of time strings, so everything
(self-authentication, single broadcast for all users, passivity)
carries over.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.keys import ServerPublicKey, UserKeyPair, UserPublicKey
from repro.core.threshold import _eval_poly, lagrange_coefficient_at_zero
from repro.core.timeserver import TimeBoundKeyUpdate
from repro.core.tre import H2_TAG, KEMScheme
from repro.crypto.authenc import aead_decrypt, aead_encrypt
from repro.ec.point import CurvePoint
from repro.encoding import BYTES, POINT, U16, codec, pack_chunks, seq, unpack_chunks, xor_bytes
from repro.errors import DecodingError, PolicyError

_KEY_BYTES = 32


@codec(u_point=POINT, masked=BYTES, conditions=seq(BYTES))
@dataclass(frozen=True)
class ConjunctionCiphertext:
    """Locked under ALL listed conditions: ``⟨U, V, (C_1..C_m)⟩``."""

    u_point: CurvePoint
    masked: bytes
    conditions: tuple[bytes, ...]


@codec(u_points=seq(POINT), sealed=BYTES, conditions=seq(BYTES))
@dataclass(frozen=True)
class DisjunctionCiphertext:
    """Locked under ANY listed condition: one ``U_j`` per alternative."""

    u_points: tuple[CurvePoint, ...]
    sealed: bytes
    conditions: tuple[bytes, ...]


def _branches(ciphertext) -> tuple[list[bytes], bytes]:
    """The per-condition masked keys (or shares) and the AEAD payload in
    an OR or t-of-m ``sealed`` blob, checked to hold one branch per
    condition; :class:`DecodingError` otherwise."""
    chunks = unpack_chunks(ciphertext.sealed)
    if len(chunks) != 2:
        raise DecodingError("sealed blob must hold the masked keys and a payload")
    masked = unpack_chunks(chunks[0])
    count = len(ciphertext.conditions)
    if not len(ciphertext.u_points) == len(masked) == count:
        raise DecodingError(
            f"{count} condition(s) need as many U points and masked keys, got "
            f"{len(ciphertext.u_points)} and {len(masked)}"
        )
    return masked, chunks[1]


class PolicyLockScheme(KEMScheme):
    """Condition-locked public-key encryption over a witness server."""

    # ------------------------------------------------------------------
    # Conjunction (ALL conditions).
    # ------------------------------------------------------------------

    def encrypt_all(
        self,
        message: bytes,
        receiver_public: UserPublicKey,
        server_public: ServerPublicKey,
        conditions: list[bytes],
        rng: random.Random,
        verify_receiver_key: bool = True,
    ) -> ConjunctionCiphertext:
        """Lock ``message`` until every condition has been attested."""
        conditions = tuple(conditions)
        if verify_receiver_key:
            receiver_public.ensure_well_formed(self.group, server_public)
        if not conditions:
            raise PolicyError("policy needs at least one condition")
        if len(set(conditions)) != len(conditions):
            raise PolicyError("duplicate conditions in policy")
        r = self.group.random_scalar(rng)
        u_point = self.group._mul_on_second_use(server_public.generator, r)
        k = self._kem._sender_key(receiver_public.as_generator, conditions, r)
        mask = self.group.mask_bytes(k, len(message), tag=H2_TAG)
        return ConjunctionCiphertext(u_point, xor_bytes(message, mask), conditions)

    def decrypt_all(
        self,
        ciphertext: ConjunctionCiphertext,
        receiver: UserKeyPair | int,
        attestations: list[TimeBoundKeyUpdate],
        server_public: ServerPublicKey | None = None,
    ) -> bytes:
        """Open with one witness attestation per condition, any order.

        A ciphertext with no conditions (possible on the wire, never
        from :meth:`encrypt_all`) raises :class:`PolicyError`: its key
        would pair against the identity and unmask to garbage.
        """
        if not ciphertext.conditions:
            raise PolicyError("policy needs at least one condition")
        by_label = {att.time_label: att for att in attestations}
        missing = set(ciphertext.conditions) - set(by_label)
        if missing:
            raise PolicyError(f"missing attestations for {sorted(missing)}")
        combined = self.group.identity()
        for condition in ciphertext.conditions:
            attestation = by_label[condition]
            if server_public is not None:
                attestation.ensure_valid(self.group, server_public)
            combined = self.group.add(combined, attestation.point)
        k = self._kem._receiver_key(ciphertext.u_point, receiver, combined)
        mask = self.group.mask_bytes(k, len(ciphertext.masked), tag=H2_TAG)
        return xor_bytes(ciphertext.masked, mask)

    # ------------------------------------------------------------------
    # Disjunction (ANY condition).
    # ------------------------------------------------------------------

    def encrypt_any(
        self,
        message: bytes,
        receiver_public: UserPublicKey,
        server_public: ServerPublicKey,
        conditions: list[bytes],
        rng: random.Random,
        verify_receiver_key: bool = True,
    ) -> DisjunctionCiphertext:
        """Lock ``message`` so any single attested condition opens it.

        The session key is encapsulated independently under each
        condition with fresh randomness; the payload is sealed once
        under an authenticated DEM so a wrong branch fails loudly.
        """
        conditions = tuple(conditions)
        if not conditions:
            raise PolicyError("policy needs at least one condition")
        if verify_receiver_key:
            receiver_public.ensure_well_formed(self.group, server_public)
        session_key = rng.randbytes(_KEY_BYTES)
        u_points = []
        masked_keys = []
        for condition in conditions:
            key, u_point = self._kem.encapsulate(
                receiver_public, server_public, condition, rng,
                key_bytes=_KEY_BYTES, verify_receiver_key=False,
            )
            u_points.append(u_point)
            masked_keys.append(xor_bytes(session_key, key))
        sealed = aead_encrypt(
            session_key, b"policy", message, associated_data=pack_chunks(*conditions)
        )
        # Masked per-branch keys ride inside `sealed`'s framing.
        blob = pack_chunks(pack_chunks(*masked_keys), sealed)
        return DisjunctionCiphertext(tuple(u_points), blob, conditions)

    def decrypt_any(
        self,
        ciphertext: DisjunctionCiphertext,
        receiver: UserKeyPair | int,
        attestation: TimeBoundKeyUpdate,
        server_public: ServerPublicKey | None = None,
    ) -> bytes:
        """Open with a single attestation for any one listed condition."""
        masked_keys, sealed = _branches(ciphertext)
        if attestation.time_label not in ciphertext.conditions:
            raise PolicyError(
                f"attestation {attestation.time_label!r} not in this policy"
            )
        if server_public is not None:
            attestation.ensure_valid(self.group, server_public)
        index = ciphertext.conditions.index(attestation.time_label)
        session_key = xor_bytes(
            masked_keys[index],
            self._kem.decapsulate(
                ciphertext.u_points[index], receiver, attestation,
                key_bytes=_KEY_BYTES,
            ),
        )
        return aead_decrypt(
            session_key,
            b"policy",
            sealed,
            associated_data=pack_chunks(*ciphertext.conditions),
        )


@codec(threshold=U16, u_points=seq(POINT), sealed=BYTES, conditions=seq(BYTES))
@dataclass(frozen=True)
class ThresholdPolicyCiphertext:
    """Locked under any ``threshold`` of the listed conditions."""

    threshold: int
    u_points: tuple[CurvePoint, ...]
    sealed: bytes
    conditions: tuple[bytes, ...]


class ThresholdPolicyScheme(KEMScheme):
    """t-of-m condition locks via Shamir sharing of the session key."""

    def encrypt(
        self,
        message: bytes,
        receiver_public: UserPublicKey,
        server_public: ServerPublicKey,
        conditions: list[bytes],
        threshold: int,
        rng: random.Random,
        verify_receiver_key: bool = True,
    ) -> ThresholdPolicyCiphertext:
        """Lock ``message`` so any ``threshold`` attested conditions open it.

        The session key is a random scalar shared with a degree-(t-1)
        polynomial; share ``i`` (at x = i+1) is masked under condition
        ``C_i`` exactly like a single-condition TRE encapsulation.
        """
        conditions = tuple(conditions)
        if not 1 <= threshold <= len(conditions):
            raise PolicyError("need 1 <= threshold <= number of conditions")
        if len(set(conditions)) != len(conditions):
            raise PolicyError("duplicate conditions in policy")
        if verify_receiver_key:
            receiver_public.ensure_well_formed(self.group, server_public)

        coefficients = [self.group.random_scalar(rng) for _ in range(threshold)]
        session_secret = coefficients[0]
        u_points = []
        masked_shares = []
        for index, condition in enumerate(conditions):
            share = _eval_poly(coefficients, index + 1, self.group.q)
            share_bytes = share.to_bytes(self.group.scalar_bytes + 1, "big")
            key, u_point = self._kem.encapsulate(
                receiver_public, server_public, condition, rng,
                key_bytes=len(share_bytes), verify_receiver_key=False,
            )
            u_points.append(u_point)
            masked_shares.append(xor_bytes(share_bytes, key))

        session_key = session_secret.to_bytes(self.group.scalar_bytes + 1, "big")
        sealed = aead_encrypt(
            session_key, b"tpolicy", message,
            associated_data=pack_chunks(threshold.to_bytes(2, "big"), *conditions),
        )
        blob = pack_chunks(pack_chunks(*masked_shares), sealed)
        return ThresholdPolicyCiphertext(
            threshold, tuple(u_points), blob, conditions
        )

    def decrypt(
        self,
        ciphertext: ThresholdPolicyCiphertext,
        receiver: UserKeyPair | int,
        attestations: list[TimeBoundKeyUpdate],
        server_public: ServerPublicKey | None = None,
    ) -> bytes:
        """Open with any ``threshold`` distinct attested conditions."""
        masked_shares, sealed = _branches(ciphertext)
        if not 1 <= ciphertext.threshold <= len(ciphertext.conditions):
            raise DecodingError("need 1 <= threshold <= number of conditions")
        by_label = {}
        for attestation in attestations:
            if attestation.time_label in ciphertext.conditions:
                by_label.setdefault(attestation.time_label, attestation)
        if len(by_label) < ciphertext.threshold:
            raise PolicyError(
                f"need {ciphertext.threshold} attested conditions, "
                f"have {len(by_label)}"
            )

        q = self.group.q
        recovered: dict[int, int] = {}
        for label, attestation in list(by_label.items())[: ciphertext.threshold]:
            if server_public is not None:
                attestation.ensure_valid(self.group, server_public)
            index = ciphertext.conditions.index(label)
            share_bytes = xor_bytes(
                masked_shares[index],
                self._kem.decapsulate(
                    ciphertext.u_points[index], receiver, attestation,
                    key_bytes=len(masked_shares[index]),
                ),
            )
            recovered[index + 1] = int.from_bytes(share_bytes, "big") % q

        xs = sorted(recovered)
        secret = 0
        for x in xs:
            coefficient = lagrange_coefficient_at_zero(xs, x, q)
            secret = (secret + coefficient * recovered[x]) % q
        session_key = secret.to_bytes(self.group.scalar_bytes + 1, "big")
        return aead_decrypt(
            session_key, b"tpolicy", sealed,
            associated_data=pack_chunks(
                ciphertext.threshold.to_bytes(2, "big"), *ciphertext.conditions
            ),
        )
