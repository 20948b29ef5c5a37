"""Threshold time server: k-of-N update issuance.

§5.3.5 distributes trust by requiring *all* N servers' updates — which
also means a single crashed server halts every release.  The natural
refinement (and the design modern drand-style networks adopted) is a
*threshold* server group: the master secret ``s`` is Shamir-shared
across N members, each member independently publishes its update share
``s_i·H1(T)``, and any ``k`` shares Lagrange-combine — in the exponent
— into the ordinary update ``s·H1(T)``:

    s·H1(T) = Σ_{i∈S} λ_i^S · (s_i·H1(T)),   |S| = k

Properties carried over from the paper's model:

* members stay **passive**: each broadcasts one share per instant;
* the combined update is byte-identical to a single-server update, so
  every scheme in :mod:`repro.core` consumes it unchanged;
* fewer than ``k`` colluding members learn nothing about ``s`` and
  cannot forge an early update (Shamir privacy);
* up to ``N - k`` members can be offline/corrupt without delaying a
  release.

Share authenticity is verifiable against Feldman commitments
(``a_j·G`` for each polynomial coefficient), so a combiner can discard
bad shares before interpolating — checked with two pairings per share,
the same self-authentication pattern as ordinary updates.

The dealer-based setup models the paper's single trusted authority
splitting itself; a DKG would remove the dealer but adds nothing to the
cost model measured in experiment E13.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.keys import ServerPublicKey
from repro.core.timeserver import TimeBoundKeyUpdate
from repro.core.tre import H1_TAG
from repro.ec.point import CurvePoint
from repro.encoding import BYTES, POINT, U32, codec
from repro.errors import ParameterError, UpdateVerificationError
from repro.pairing.api import PairingGroup


def _eval_poly(coefficients: list[int], x: int, q: int) -> int:
    """Horner evaluation of the sharing polynomial over ``Z_q``."""
    result = 0
    for coefficient in reversed(coefficients):
        result = (result * x + coefficient) % q
    return result


def lagrange_coefficient_at_zero(indices: list[int], i: int, q: int) -> int:
    """``λ_i = Π_{j≠i} j / (j - i) mod q`` for interpolation at x=0."""
    if i not in indices:
        raise ParameterError(f"index {i} not in the interpolation set")
    numerator, denominator = 1, 1
    for j in indices:
        if j == i:
            continue
        numerator = numerator * j % q
        denominator = denominator * (j - i) % q
    try:
        return numerator * pow(denominator, -1, q) % q
    except ValueError as exc:
        raise ParameterError("interpolation indices must be distinct") from exc


@codec(member_index=U32, time_label=BYTES, point=POINT)
@dataclass(frozen=True)
class UpdateShare:
    """One member's contribution ``s_i·H1(T)`` for time ``T``."""

    member_index: int
    time_label: bytes
    point: CurvePoint


class ThresholdServerMember:
    """A single share-holding member of the threshold time server."""

    def __init__(
        self,
        group: PairingGroup,
        index: int,
        share: int,
        group_public: ServerPublicKey,
    ):
        if index < 1:
            raise ParameterError("member indices start at 1 (x=0 is the secret)")
        self.group = group
        self.index = index
        self._share = share
        self.group_public = group_public
        # The member's verification key s_i·G, published at setup.
        self.verification_key = group.mul(group_public.generator, share)
        self.shares_published = 0

    def issue_update_share(self, time_label: bytes) -> UpdateShare:
        """Sign the time string with the share: ``s_i·H1(T)``."""
        h_t = self.group.hash_to_g1(time_label, tag=H1_TAG)
        self.shares_published += 1
        return UpdateShare(self.index, time_label, self.group.mul(h_t, self._share))


class ThresholdTimeServer:
    """The public face of a k-of-N threshold time server group.

    Construct with :meth:`setup`; it returns the coordinator object
    (holding only public data) plus the N member objects.  Anyone — a
    receiver, a relay, one of the members — can run
    :meth:`verify_share` and :meth:`combine`; no secret is needed.
    """

    def __init__(
        self,
        group: PairingGroup,
        threshold: int,
        public_key: ServerPublicKey,
        commitments: list[CurvePoint],
    ):
        self.group = group
        self.threshold = threshold
        self.public_key = public_key
        # Feldman commitments a_0·G .. a_{k-1}·G with a_0 = s.
        self.commitments = commitments

    @classmethod
    def setup(
        cls,
        group: PairingGroup,
        members: int,
        threshold: int,
        rng: random.Random,
        generator: CurvePoint | None = None,
    ) -> tuple["ThresholdTimeServer", list[ThresholdServerMember]]:
        """Dealer setup: share a fresh ``s`` into ``members`` shares."""
        if not 1 <= threshold <= members:
            raise ParameterError("need 1 <= threshold <= members")
        if generator is None:
            generator = group.mul(group.generator, group.random_scalar(rng))
        coefficients = [group.random_scalar(rng) for _ in range(threshold)]
        secret = coefficients[0]
        public = ServerPublicKey(generator, group.mul(generator, secret))
        commitments = [group.mul(generator, a) for a in coefficients]
        coordinator = cls(group, threshold, public, commitments)
        member_objects = [
            ThresholdServerMember(
                group, i, _eval_poly(coefficients, i, group.q), public
            )
            for i in range(1, members + 1)
        ]
        return coordinator, member_objects

    # ------------------------------------------------------------------
    # Share verification (Feldman + pairing).
    # ------------------------------------------------------------------

    def expected_verification_key(self, index: int) -> CurvePoint:
        """``s_i·G`` recomputed from the public commitments:
        ``Σ_j i^j · (a_j·G)``."""
        total = self.group.identity()
        power = 1
        for commitment in self.commitments:
            total = self.group.add(total, self.group.mul(commitment, power))
            power = power * index % self.group.q
        return total

    def verify_share(self, share: UpdateShare) -> bool:
        """Check ``ê(s_iG, H1(T)) == ê(G, share)`` against the Feldman
        commitments — a bad or substituted share is caught before it can
        poison the combination.  Paired on ``H1(T)``'s map point like
        the update check, but with no line recording: ``s_iG`` follows
        from the ``member_index`` anyone can put on the wire."""
        if share.point.is_infinity or not self.group.in_group(share.point):
            return False
        verification_key = self.expected_verification_key(share.member_index)
        return self.group.pair_h1(
            verification_key, share.time_label, H1_TAG,
            over=(self.public_key.generator, share.point),
        ).is_identity()

    # ------------------------------------------------------------------
    # Combination.
    # ------------------------------------------------------------------

    def combine(
        self, shares: list[UpdateShare], verify: bool = True
    ) -> TimeBoundKeyUpdate:
        """Lagrange-combine ``k`` verified shares into ``s·H1(T)``.

        Extra shares beyond the threshold are ignored (the first ``k``
        distinct valid ones are used), and a share that fails
        :meth:`verify_share` is skipped, so up to ``N - k`` corrupt
        members cannot block a release.  The result is
        indistinguishable from — and verified exactly like — a
        single-server update.
        """
        distinct: dict[int, UpdateShare] = {}
        label = None
        for share in shares:
            if label is None:
                label = share.time_label
            elif share.time_label != label:
                raise UpdateVerificationError(
                    "shares are for different time labels"
                )
            if share.member_index in distinct:
                continue
            if verify and not self.verify_share(share):
                continue
            distinct[share.member_index] = share
            if len(distinct) == self.threshold:
                break
        if len(distinct) < self.threshold:
            raise UpdateVerificationError(
                f"need {self.threshold} valid shares, got {len(distinct)}"
            )
        indices = sorted(distinct)
        combined = self.group.identity()
        for index in indices:
            coefficient = lagrange_coefficient_at_zero(
                indices, index, self.group.q
            )
            combined = self.group.add(
                combined, self.group.mul(distinct[index].point, coefficient)
            )
        update = TimeBoundKeyUpdate(label, combined)
        if verify:
            update.ensure_valid(self.group, self.public_key)
        return update
