"""Tests for the passive time server and its update archive."""

import pytest

from repro.core.keys import ServerKeyPair
from repro.core.timeserver import PassiveTimeServer, TimeBoundKeyUpdate, epoch_label
from repro.errors import (
    ParameterError,
    UpdateNotAvailableError,
    UpdateVerificationError,
)


class TestEpochLabel:
    def test_lexicographic_order(self):
        labels = [epoch_label(i) for i in (0, 1, 9, 10, 99, 100, 10**11)]
        assert labels == sorted(labels)

    def test_negative_raises(self):
        with pytest.raises(ParameterError):
            epoch_label(-1)

    def test_prefix(self):
        assert epoch_label(3, prefix="day").startswith(b"day:")


class TestUpdateSelfAuthentication:
    def test_published_update_verifies(self, group, server):
        update = server.publish_update(b"t-auth-1")
        assert update.verify(group, server.public_key)
        update.ensure_valid(group, server.public_key)

    def test_forged_update_rejected(self, group, server, rng):
        forged = TimeBoundKeyUpdate(b"t-forged", group.random_point(rng))
        assert not forged.verify(group, server.public_key)
        with pytest.raises(UpdateVerificationError):
            forged.ensure_valid(group, server.public_key)

    def test_relabeled_update_rejected(self, group, server):
        update = server.publish_update(b"t-real")
        relabeled = TimeBoundKeyUpdate(b"t-fake", update.point)
        assert not relabeled.verify(group, server.public_key)

    def test_update_from_other_server_rejected(self, group, server, rng):
        other = PassiveTimeServer(group, rng=rng)
        update = other.publish_update(b"t-x")
        assert not update.verify(group, server.public_key)

    def test_serialization_roundtrip(self, group, server):
        update = server.publish_update(b"t-ser")
        blob = update.to_bytes(group)
        assert TimeBoundKeyUpdate.from_bytes(group, blob) == update


class TestServerBehaviour:
    def test_update_identical_for_all_callers(self, group, rng):
        # "a single I_t for all receivers": repeated publishes return the
        # exact same object/point.
        server = PassiveTimeServer(group, rng=rng)
        u1 = server.publish_update(b"t")
        u2 = server.publish_update(b"t")
        assert u1 == u2
        assert server.updates_published == 1

    def test_archive_lookup(self, group, rng):
        server = PassiveTimeServer(group, rng=rng)
        update = server.publish_update(b"t-arch")
        assert server.lookup(b"t-arch") == update
        assert b"t-arch" in server.archive_labels()

    def test_lookup_unpublished_raises(self, group, rng):
        server = PassiveTimeServer(group, rng=rng)
        with pytest.raises(UpdateNotAvailableError):
            server.lookup(b"never-published")

    def test_no_per_user_state(self, group, rng):
        # The server object stores keys + archive only; creating users
        # does not touch it, and its byte counter grows per *update*.
        server = PassiveTimeServer(group, rng=rng)
        before = server.bytes_broadcast
        server.publish_update(b"t1")
        after_one = server.bytes_broadcast
        server.publish_update(b"t2")
        assert server.bytes_broadcast == 2 * (after_one - before)

    def test_requires_rng_or_keypair(self, group):
        with pytest.raises(ParameterError):
            PassiveTimeServer(group)

    def test_existing_keypair(self, group, rng):
        kp = ServerKeyPair.generate(group, rng)
        server = PassiveTimeServer(group, keypair=kp)
        assert server.public_key == kp.public


class TestReleasePolicy:
    def test_future_epoch_refused(self, group, rng):
        clock = {"now": 5}
        server = PassiveTimeServer(group, rng=rng, clock=lambda: clock["now"])
        with pytest.raises(UpdateNotAvailableError):
            server.publish_update(epoch_label(6))
        # Current and past epochs are fine.
        server.publish_update(epoch_label(5))
        server.publish_update(epoch_label(1))
        clock["now"] = 6
        server.publish_update(epoch_label(6))

    def test_freeform_labels_bypass_policy(self, group, rng):
        server = PassiveTimeServer(group, rng=rng, clock=lambda: 0)
        # Non-epoch labels carry no ordering the server can enforce.
        server.publish_update(b"the-merger-closes")

    def test_issue_update_models_corrupt_server(self, group, rng):
        server = PassiveTimeServer(group, rng=rng, clock=lambda: 0)
        update = server.issue_update(epoch_label(10**6))
        assert update.verify(group, server.public_key)
        # But an honest publish of the same label still refuses.
        with pytest.raises(UpdateNotAvailableError):
            server.publish_update(epoch_label(10**6))


class TestClockSkewTolerance:
    def test_zero_skew_is_strict(self, group, rng):
        # No tolerance window: one epoch ahead of the server's clock is
        # already refused, however far the caller's clock runs ahead.
        server = PassiveTimeServer(group, rng=rng, clock=lambda: 5)
        with pytest.raises(UpdateNotAvailableError, match=r"\(skew tolerance 0\)$"):
            server.publish_update(epoch_label(6))


class TestSnapshotRestore:
    def test_roundtrip_restores_every_update(self, group, rng):
        server = PassiveTimeServer(group, rng=rng)
        for epoch in range(4):
            server.publish_update(epoch_label(epoch))
        snapshot = server.snapshot_archive()

        reborn = PassiveTimeServer(group, keypair=server._keypair)
        assert reborn.restore_archive(snapshot) == 4
        assert reborn.archive_labels() == server.archive_labels()
        for label in server.archive_labels():
            assert reborn.lookup(label) == server.lookup(label)

    def test_restore_is_idempotent(self, group, rng):
        server = PassiveTimeServer(group, rng=rng)
        server.publish_update(epoch_label(0))
        snapshot = server.snapshot_archive()
        assert server.restore_archive(snapshot) == 0  # all already present

    def test_snapshot_contains_no_secret(self, group, rng):
        server = PassiveTimeServer(group, rng=rng)
        server.publish_update(epoch_label(0))
        snapshot = server.snapshot_archive()
        secret = server._keypair.private.to_bytes(
            (server._keypair.private.bit_length() + 7) // 8, "big"
        )
        assert secret not in snapshot

    def test_foreign_snapshot_rejected(self, group, rng):
        honest = PassiveTimeServer(group, rng=rng)
        imposter = PassiveTimeServer(group, rng=rng)
        imposter.publish_update(epoch_label(0))
        with pytest.raises(UpdateVerificationError):
            honest.restore_archive(imposter.snapshot_archive())

    def test_archive_since_is_strictly_greater(self, group, rng):
        server = PassiveTimeServer(group, rng=rng)
        for epoch in range(5):
            server.publish_update(epoch_label(epoch))
        since = server.archive_since(epoch_label(2))
        assert [u.time_label for u in since] == [
            epoch_label(3), epoch_label(4)
        ]
        assert server.archive_since(b"") == [
            server.lookup(epoch_label(e)) for e in range(5)
        ]
