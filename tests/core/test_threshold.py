"""Tests for the k-of-N threshold time server."""

import itertools

import pytest

from repro.core.threshold import (
    ThresholdTimeServer,
    UpdateShare,
    lagrange_coefficient_at_zero,
)
from repro.core.keys import UserKeyPair
from repro.core.tre import TimedReleaseScheme
from repro.errors import ParameterError, UpdateVerificationError

LABEL = b"2032-02-02T02:02Z"


@pytest.fixture(scope="module")
def threshold_world(group, session_rng):
    coordinator, members = ThresholdTimeServer.setup(
        group, members=5, threshold=3, rng=session_rng
    )
    return coordinator, members


class TestLagrange:
    def test_interpolates_constant_term(self, group):
        # f(x) = 7 + 3x + 5x^2 over Z_q, shares at x=1..5.
        q = group.q
        coeffs = [7, 3, 5]
        shares = {
            x: (coeffs[0] + coeffs[1] * x + coeffs[2] * x * x) % q
            for x in range(1, 6)
        }
        for subset in itertools.combinations(shares, 3):
            total = sum(
                lagrange_coefficient_at_zero(list(subset), i, q) * shares[i]
                for i in subset
            ) % q
            assert total == 7

    def test_index_must_be_in_set(self, group):
        with pytest.raises(ParameterError):
            lagrange_coefficient_at_zero([1, 2, 3], 4, group.q)


class TestSetup:
    def test_bad_threshold_rejected(self, group, rng):
        with pytest.raises(ParameterError):
            ThresholdTimeServer.setup(group, members=3, threshold=4, rng=rng)
        with pytest.raises(ParameterError):
            ThresholdTimeServer.setup(group, members=3, threshold=0, rng=rng)

    def test_member_keys_match_commitments(self, group, threshold_world):
        coordinator, members = threshold_world
        for member in members:
            assert (
                coordinator.expected_verification_key(member.index)
                == member.verification_key
            )

    def test_commitment_zero_is_public_key(self, group, threshold_world):
        coordinator, _ = threshold_world
        assert coordinator.commitments[0] == coordinator.public_key.s_generator


class TestShares:
    def test_share_verifies(self, threshold_world):
        coordinator, members = threshold_world
        share = members[0].issue_update_share(LABEL)
        assert coordinator.verify_share(share)

    def test_forged_share_rejected(self, group, threshold_world, rng):
        coordinator, _ = threshold_world
        forged = UpdateShare(1, LABEL, group.random_point(rng))
        assert not coordinator.verify_share(forged)

    def test_share_from_wrong_member_index_rejected(self, threshold_world):
        coordinator, members = threshold_world
        share = members[0].issue_update_share(LABEL)
        relabeled = UpdateShare(2, share.time_label, share.point)
        assert not coordinator.verify_share(relabeled)

    def test_infinity_share_rejected(self, group, threshold_world):
        coordinator, _ = threshold_world
        assert not coordinator.verify_share(
            UpdateShare(1, LABEL, group.identity())
        )


class TestMemberKeyCache:
    def test_member_keys_cached_once_each(self, group, rng):
        coordinator, members = ThresholdTimeServer.setup(
            group, members=4, threshold=2, rng=rng
        )
        shares = [member.issue_update_share(LABEL) for member in members]
        for share in shares + shares:
            assert coordinator.verify_share(share)
        assert sorted(coordinator._member_keys) == [1, 2, 3, 4]
        for member in members:
            assert (
                coordinator._member_keys[member.index]
                == member.verification_key
            )

    def test_bad_index_neither_cached_nor_accepted(self, group, rng):
        """``member_index`` is wire input: an index outside 1..N is
        computed uncached and still fails the check."""
        coordinator, members = ThresholdTimeServer.setup(
            group, members=4, threshold=2, rng=rng
        )
        share = members[0].issue_update_share(LABEL)
        for index in (0, 5, 6, 2**16 - 1, 2**32 - 1):
            relabeled = UpdateShare(index, share.time_label, share.point)
            assert not coordinator.verify_share(relabeled)
            assert not coordinator.verify_share(relabeled)
        assert coordinator._member_keys == {}


class TestCombination:
    def test_any_k_subset_combines_to_same_update(self, group, threshold_world):
        coordinator, members = threshold_world
        shares = [m.issue_update_share(LABEL) for m in members]
        updates = [
            coordinator.combine([shares[i] for i in subset])
            for subset in itertools.combinations(range(5), 3)
        ]
        assert all(u == updates[0] for u in updates)
        assert updates[0].verify(group, coordinator.public_key)

    def test_combined_update_decrypts_tre(self, group, threshold_world, rng):
        coordinator, members = threshold_world
        scheme = TimedReleaseScheme(group)
        user = UserKeyPair.generate(group, coordinator.public_key, rng)
        ct = scheme.encrypt(
            b"threshold-released", user.public, coordinator.public_key, LABEL, rng
        )
        update = coordinator.combine(
            [m.issue_update_share(LABEL) for m in members[:3]]
        )
        assert scheme.decrypt(ct, user, update, coordinator.public_key) == (
            b"threshold-released"
        )

    def test_too_few_shares_fail(self, threshold_world):
        coordinator, members = threshold_world
        shares = [m.issue_update_share(LABEL) for m in members[:2]]
        with pytest.raises(UpdateVerificationError):
            coordinator.combine(shares)

    def test_duplicate_shares_do_not_count_twice(self, threshold_world):
        coordinator, members = threshold_world
        share = members[0].issue_update_share(LABEL)
        with pytest.raises(UpdateVerificationError):
            coordinator.combine([share, share, share])

    def test_bad_share_rejected_during_combine(self, group, threshold_world, rng):
        coordinator, members = threshold_world
        shares = [m.issue_update_share(LABEL) for m in members[:2]]
        shares.append(UpdateShare(3, LABEL, group.random_point(rng)))
        with pytest.raises(UpdateVerificationError):
            coordinator.combine(shares)

    def test_bad_share_skipped_when_enough_honest(self, group, rng):
        """A corrupt member's share is discarded, not fatal: k = 2 honest
        shares still release the update."""
        coordinator, members = ThresholdTimeServer.setup(
            group, members=3, threshold=2, rng=rng
        )
        honest = [m.issue_update_share(LABEL) for m in members]
        doubled = UpdateShare(1, LABEL, group.mul(honest[0].point, 2))
        update = coordinator.combine([doubled, *honest[1:]])
        assert update.to_bytes(group) == (
            coordinator.combine(honest[1:]).to_bytes(group)
        )
        with pytest.raises(UpdateVerificationError, match="need 2 valid shares"):
            coordinator.combine([doubled, honest[1]])

    def test_mixed_labels_rejected(self, threshold_world):
        coordinator, members = threshold_world
        shares = [m.issue_update_share(LABEL) for m in members[:2]]
        shares.append(members[2].issue_update_share(b"other-label"))
        with pytest.raises(UpdateVerificationError):
            coordinator.combine(shares)

    def test_extra_shares_ignored(self, group, threshold_world):
        coordinator, members = threshold_world
        all_shares = [m.issue_update_share(LABEL) for m in members]
        update = coordinator.combine(all_shares)
        assert update.verify(group, coordinator.public_key)

    def test_offline_tolerance(self, group, threshold_world, rng):
        """N - k members can vanish without delaying the release."""
        coordinator, members = threshold_world
        online = members[2:]  # members 1 and 2 are down
        update = coordinator.combine(
            [m.issue_update_share(LABEL) for m in online]
        )
        assert update.verify(group, coordinator.public_key)

    def test_below_threshold_collusion_cannot_forge(self, group, threshold_world):
        """Two colluding members (k=3) cannot produce a valid update by
        combining just their own shares with any coefficients we try."""
        coordinator, members = threshold_world
        s1 = members[0].issue_update_share(LABEL)
        s2 = members[1].issue_update_share(LABEL)
        from repro.core.timeserver import TimeBoundKeyUpdate

        for c1, c2 in [(1, 1), (2, -1), (3, -2), (5, 7)]:
            attempt = group.add(
                group.mul(s1.point, c1), group.mul(s2.point, c2)
            )
            forged = TimeBoundKeyUpdate(LABEL, attempt)
            assert not forged.verify(group, coordinator.public_key)

    def test_one_of_one_degenerates_to_plain_server(self, group, rng):
        coordinator, members = ThresholdTimeServer.setup(
            group, members=1, threshold=1, rng=rng
        )
        update = coordinator.combine([members[0].issue_update_share(LABEL)])
        assert update.verify(group, coordinator.public_key)
