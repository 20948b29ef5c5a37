"""Boneh–Lynn–Shacham short signatures (paper §5.3.1).

The paper observes that a time-bound key update ``s·H1(T)`` *is* a BLS
short signature on the time string ``T`` under the server's key — which
is why updates are self-authenticating and need no extra signature.  This
module implements the signature scheme standalone so that:

* the time server (:mod:`repro.core.timeserver`) signs and verifies
  updates through it, and
* experiment E6 can compare "self-authenticated update" against a
  strawman "update + detached signature" design.

Signing is one hash-to-group plus one scalar multiplication; verifying
is the pairing-ratio check ``ê(sG, H1(m)) == ê(G, σ)``, evaluated as a
single multi-pairing (two Miller loops, ONE final exponentiation) by
:meth:`repro.pairing.api.PairingGroup.pair_h1`, which never clears
``H1(m)``'s cofactor.  Signing needs ``H1(m)`` as a point in G1, as
does the sum in :meth:`BLSSignatureScheme.batch_verify`;
``verify_aggregate`` still pairs each ``H1(m_i)`` itself.
"""

from __future__ import annotations

from repro.core.keys import ServerKeyPair, ServerPublicKey
from repro.ec.point import CurvePoint
from repro.pairing.api import PairingGroup

H1_TAG = "repro:H1"


class BLSSignatureScheme:
    """BLS signatures over a symmetric pairing group."""

    def __init__(self, group: PairingGroup, hash_tag: str = H1_TAG):
        self.group = group
        self.hash_tag = hash_tag

    def hash_message(self, message: bytes) -> CurvePoint:
        """``H1(m)``, the random-oracle hash onto ``G1``."""
        return self.group.hash_to_g1(message, tag=self.hash_tag)

    def sign(self, keypair: ServerKeyPair, message: bytes) -> CurvePoint:
        """``σ = s·H1(m)``."""
        return self.group.mul(self.hash_message(message), keypair.private)

    def precompute_public(self, public: ServerPublicKey) -> None:
        """Cache Miller lines for ``(G, D)`` so verification reuses them.

        ``D = (c mod q)·sG`` and ``G`` are the two fixed first
        arguments of :meth:`verify` under a fixed public key; after
        this call every ``verify`` against ``public`` evaluates cached
        lines instead of re-running the full Miller loop.  A receiver
        catching up on an archive of time-bound key updates pays the
        two precomputations, and the one derivation of ``D``, once for
        the whole backlog.
        """
        self.group.precompute_pairing(public.cofactor_s_generator(self.group))
        self.group.precompute_pairing(public.generator)

    def verify(
        self, public: ServerPublicKey, message: bytes, signature: CurvePoint
    ) -> bool:
        """Check ``ê(sG, H1(m)) == ê(G, σ)``.

        Rejects the point at infinity and signatures outside the
        prime-order subgroup first, which guards against small-subgroup
        confusion: the Tate pairing cannot see an order-2 component
        such as ``σ + (0, 0)``.  A decoded ``σ`` carries the subgroup
        proof its decoder established, so the check is free there; a
        point without one pays the full ``q·σ = O`` test.

        The pairing step is :meth:`~repro.pairing.api.PairingGroup.pair_h1`
        with ``D = (c mod q)·sG``
        (:meth:`~repro.core.keys.ServerPublicKey.cofactor_s_generator`):
        one multi-pairing ratio ``ê(D, P′₀) / ê(G, σ)`` against
        ``H1(m)``'s uncleared map point.

        A receiver keeps one server key for its whole life, so the check
        follows the second-use rule of
        :meth:`~repro.pairing.api.PairingGroup._precompute_on_second_use`:
        the first check against ``public`` on this group runs both
        Miller loops fused and records nothing, the second records the
        lines of ``D`` and ``G``, and every later one evaluates both
        tables in one pass plus one final exponentiation.
        :meth:`precompute_public` records them up front.  The verdict is
        the same on every path.
        """
        if (signature.is_infinity or public.generator.is_infinity
                or not self.group.in_group(signature)):
            return False
        derived = public.cofactor_s_generator(self.group)
        self.group._precompute_on_second_use(derived, public.generator)
        return self.group.pair_h1(
            public.s_generator, message, self.hash_tag,
            derived=derived, over=(public.generator, signature),
        ).is_identity()

    def batch_verify(
        self,
        public: ServerPublicKey,
        messages: list[bytes],
        signatures: list[CurvePoint],
        rng,
    ) -> bool:
        """Verify ``n`` signatures under ONE key with just 2 pairings.

        Small-exponent batching: draw random ``r_i`` and check

            ê(Σ r_i·H1(m_i), sG) == ê(G, Σ r_i·σ_i)

        which follows from bilinearity when every signature is valid,
        and fails with probability ``~2^-128`` per forged signature for
        128-bit ``r_i``.  A receiver catching up on a long archive of
        time-bound key updates verifies them all at the cost of one
        (§5.1 single-update) check plus ``2n`` scalar multiplications.
        """
        if len(messages) != len(signatures) or not messages:
            return False
        for signature in signatures:
            if signature.is_infinity or not self.group.in_group(signature):
                return False
        hash_side = self.group.identity()
        sig_side = self.group.identity()
        for message, signature in zip(messages, signatures):
            r = rng.getrandbits(128) | 1
            hash_side = self.group.add(
                hash_side, self.group.mul(self.hash_message(message), r)
            )
            sig_side = self.group.add(sig_side, self.group.mul(signature, r))
        return self.group.pair_ratio_is_one(
            ((hash_side, public.s_generator),),
            ((public.generator, sig_side),),
        )

    def aggregate(self, signatures: list[CurvePoint]) -> CurvePoint:
        """Sum distinct-message signatures into one point (BLS aggregation).

        Not used by the paper itself but exercised by the multi-server
        tests: updates for the same ``T`` from servers sharing a
        generator can be verified in aggregate.
        """
        total = self.group.identity()
        for signature in signatures:
            total = self.group.add(total, signature)
        return total

    def verify_aggregate(
        self,
        publics: list[ServerPublicKey],
        messages: list[bytes],
        aggregate: CurvePoint,
    ) -> bool:
        """Check ``Π ê(s_iG_i, H1(m_i)) == ê(G, Σσ_i)`` for a shared G.

        The whole product equation is ONE multi-pairing: ``n + 1``
        Miller loops in lockstep and a single final exponentiation.
        The point at infinity is rejected as an aggregate — like a
        single infinity signature in :meth:`verify`, it would otherwise
        pass whenever the hash-side product collapses to the identity.
        """
        if len(publics) != len(messages) or not publics:
            return False
        generator = publics[0].generator
        if any(pk.generator != generator for pk in publics):
            return False
        if aggregate.is_infinity or not self.group.in_group(aggregate):
            return False
        return self.group.pair_ratio_is_one(
            [
                (public.s_generator, self.hash_message(message))
                for public, message in zip(publics, messages)
            ],
            ((generator, aggregate),),
        )
