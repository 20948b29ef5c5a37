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
``H1(m)``'s cofactor.  Signing needs ``H1(m)`` as a point in G1.  A
backlog of updates under one key is checked as one batched equation by
:func:`repro.core.timeserver.verify_archive`.
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
