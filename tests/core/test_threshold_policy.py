"""Tests for t-of-m threshold condition locks."""

import itertools
from dataclasses import replace

import pytest

from repro.core.policylock import ThresholdPolicyCiphertext, ThresholdPolicyScheme
from repro.encoding import pack_chunks
from repro.errors import DecodingError, PolicyError

CONDITIONS = [b"board-approved", b"audit-passed", b"regulator-ok", b"ceo-signed"]


@pytest.fixture(scope="module")
def scheme(group):
    return ThresholdPolicyScheme(group)


@pytest.fixture(scope="module")
def locked(scheme, server, user, session_rng):
    return scheme.encrypt(
        b"threshold secret", user.public, server.public_key, CONDITIONS, 2,
        session_rng,
    )


@pytest.fixture(scope="module")
def attestations(server):
    return {c: server.publish_update(c) for c in CONDITIONS}


class TestThresholdPolicy:
    def test_every_pair_opens(self, scheme, user, server, locked, attestations):
        for pair in itertools.combinations(CONDITIONS, 2):
            atts = [attestations[c] for c in pair]
            assert scheme.decrypt(
                locked, user, atts, server.public_key
            ) == b"threshold secret"

    def test_below_threshold_fails(self, scheme, user, locked, attestations):
        with pytest.raises(PolicyError):
            scheme.decrypt(locked, user, [attestations[CONDITIONS[0]]])

    def test_extra_attestations_harmless(self, scheme, user, locked, attestations):
        atts = [attestations[c] for c in CONDITIONS]
        assert scheme.decrypt(locked, user, atts) == b"threshold secret"

    def test_duplicate_attestations_not_counted(self, scheme, user, locked,
                                                attestations):
        att = attestations[CONDITIONS[0]]
        with pytest.raises(PolicyError):
            scheme.decrypt(locked, user, [att, att, att])

    def test_unrelated_attestations_ignored(self, scheme, user, server, locked,
                                            attestations):
        unrelated = server.publish_update(b"not-in-policy")
        with pytest.raises(PolicyError):
            scheme.decrypt(
                locked, user, [attestations[CONDITIONS[0]], unrelated]
            )

    def test_wrong_receiver_fails_loudly(self, scheme, group, server, locked,
                                         attestations, rng):
        from repro.core.keys import UserKeyPair
        from repro.errors import DecryptionError

        other = UserKeyPair.generate(group, server.public_key, rng)
        atts = [attestations[c] for c in CONDITIONS[:2]]
        with pytest.raises(DecryptionError):
            scheme.decrypt(locked, other, atts)

    def test_one_of_m_matches_disjunction_semantics(self, scheme, user, server,
                                                    attestations, rng):
        ct = scheme.encrypt(
            b"any one", user.public, server.public_key, CONDITIONS, 1, rng
        )
        for condition in CONDITIONS:
            assert scheme.decrypt(
                ct, user, [attestations[condition]]
            ) == b"any one"

    def test_m_of_m_matches_conjunction_semantics(self, scheme, user, server,
                                                  attestations, rng):
        ct = scheme.encrypt(
            b"all four", user.public, server.public_key, CONDITIONS,
            len(CONDITIONS), rng,
        )
        atts = [attestations[c] for c in CONDITIONS]
        assert scheme.decrypt(ct, user, atts) == b"all four"
        with pytest.raises(PolicyError):
            scheme.decrypt(ct, user, atts[:-1])

    def test_invalid_threshold_rejected(self, scheme, user, server, rng):
        with pytest.raises(PolicyError):
            scheme.encrypt(
                b"m", user.public, server.public_key, CONDITIONS, 0, rng
            )
        with pytest.raises(PolicyError):
            scheme.encrypt(
                b"m", user.public, server.public_key, CONDITIONS, 5, rng
            )

    def test_duplicate_conditions_rejected(self, scheme, user, server, rng):
        with pytest.raises(PolicyError):
            scheme.encrypt(
                b"m", user.public, server.public_key, [b"c", b"c"], 1, rng
            )

    def test_forged_attestation_rejected_when_verifying(
        self, scheme, group, user, server, locked, attestations, rng
    ):
        from repro.core.timeserver import TimeBoundKeyUpdate
        from repro.errors import UpdateVerificationError

        forged = TimeBoundKeyUpdate(CONDITIONS[1], group.random_point(rng))
        with pytest.raises(UpdateVerificationError):
            scheme.decrypt(
                locked, user, [attestations[CONDITIONS[0]], forged],
                server.public_key,
            )

    def test_serialization(self, scheme, group, user, locked, attestations):
        restored = ThresholdPolicyCiphertext.from_bytes(
            group, locked.to_bytes(group)
        )
        assert restored == locked
        atts = [attestations[c] for c in CONDITIONS[1:3]]
        assert scheme.decrypt(restored, user, atts) == b"threshold secret"

    @pytest.mark.parametrize("malform", [
        lambda ct: replace(ct, threshold=0),
        lambda ct: replace(ct, threshold=len(CONDITIONS) + 1),
        lambda ct: replace(ct, sealed=pack_chunks(ct.sealed)),
        lambda ct: replace(ct, u_points=ct.u_points[:1]),
        lambda ct: replace(ct, sealed=pack_chunks(pack_chunks(b"s"), b"")),
    ], ids=["zero-threshold", "threshold-above-m", "one-chunk-sealed",
            "short-u-points", "short-masked-shares"])
    def test_malformed_branches_are_decoding_errors(
        self, scheme, user, locked, attestations, malform
    ):
        atts = [attestations[c] for c in CONDITIONS]
        with pytest.raises(DecodingError):
            scheme.decrypt(malform(locked), user, atts)
