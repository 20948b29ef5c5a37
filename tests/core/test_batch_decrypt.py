"""Batch decryption and archive catch-up over the precomputation layer.

Everything here checks the same invariant from a different angle: the
fast paths change wall-clock cost, never bytes.
"""

import pytest

from repro.core.bls import BLSSignatureScheme
from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.timeserver import (
    PassiveTimeServer,
    TimeBoundKeyUpdate,
    epoch_label,
    verify_archive,
)
from repro.core.tre import TimedReleaseScheme
from repro.errors import UpdateVerificationError
from repro.pairing.opcount import FIXED_BASE_MULT, PAIRING_PRECOMP

LABEL = b"batch-test:2026-08-05"


@pytest.fixture()
def setup(any_group, rng):
    scheme = TimedReleaseScheme(any_group)
    server = PassiveTimeServer(any_group, rng=rng)
    user = UserKeyPair.generate(any_group, server.public_key, rng)
    update = server.publish_update(LABEL)
    messages = [f"message number {i}".encode() for i in range(6)]
    cts = [
        scheme.encrypt(m, user.public, server.public_key, LABEL, rng)
        for m in messages
    ]
    yield scheme, server, user, update, messages, cts
    any_group.clear_precomputations()


class TestDecryptBatch:
    def test_matches_individual_decrypts(self, setup):
        scheme, server, user, update, messages, cts = setup
        singles = [scheme.decrypt(ct, user, update) for ct in cts]
        batch = scheme.decrypt_batch(cts, user, update)
        assert batch == singles == messages

    def test_accepts_private_scalar(self, setup):
        scheme, server, user, update, messages, cts = setup
        assert scheme.decrypt_batch(cts, user.private, update) == messages

    def test_authenticates_update_once(self, setup):
        scheme, server, user, update, messages, cts = setup
        assert (
            scheme.decrypt_batch(cts, user, update, server.public_key) == messages
        )

    def test_rejects_forged_update(self, setup):
        scheme, server, user, update, messages, cts = setup
        forged = TimeBoundKeyUpdate(LABEL, scheme.group.generator)
        with pytest.raises(UpdateVerificationError):
            scheme.decrypt_batch(cts, user, forged, server.public_key)

    def test_rejects_mixed_labels_before_decrypting(self, setup, rng):
        scheme, server, user, update, messages, cts = setup
        stray = scheme.encrypt(
            b"other epoch", user.public, server.public_key, b"other-label", rng
        )
        with pytest.raises(UpdateVerificationError):
            scheme.decrypt_batch(cts + [stray], user, update)

    def test_empty_batch(self, setup):
        scheme, server, user, update, messages, cts = setup
        assert scheme.decrypt_batch([], user, update) == []

    def test_uses_cached_lines_on_family_a(self, setup):
        scheme, server, user, update, messages, cts = setup
        group = scheme.group
        group.counters.reset()
        scheme.decrypt_batch(cts, user, update)
        expected = len(cts) if group.family == "A" else 0
        assert group.counters.total(PAIRING_PRECOMP) == expected


    def test_cache_bounded_and_free_of_epoch_keys(self, any_group, rng):
        """Eight epochs of batches add nothing to the group cache.

        ``a·I_T`` is the receiver's decryption key for ``T``; its lines
        belong to the batch, never to the shared cache.
        """
        scheme = TimedReleaseScheme(any_group)
        server = PassiveTimeServer(any_group, rng=rng)
        user = UserKeyPair.generate(any_group, server.public_key, rng)
        before = len(any_group._pairing_precomp)
        for epoch in range(8):
            label = epoch_label(epoch, prefix="batch-cache")
            update = server.publish_update(label)
            cts = [
                scheme.encrypt(
                    b"epoch %d" % epoch, user.public, server.public_key,
                    label, rng, verify_receiver_key=False,
                )
                for _ in range(2)
            ]
            assert scheme.decrypt_batch(cts, user, update) == [
                b"epoch %d" % epoch
            ] * 2
            epoch_key = any_group.mul(update.point, user.private)
            assert epoch_key not in any_group._pairing_precomp
            assert len(any_group._pairing_precomp) == before


class TestSenderPrecompute:
    def test_encrypt_identical_after_precompute(self, any_group, rng):
        scheme = TimedReleaseScheme(any_group)
        server = PassiveTimeServer(any_group, rng=rng)
        user = UserKeyPair.generate(any_group, server.public_key, rng)
        update = server.publish_update(LABEL)

        scheme.precompute_sender(user.public, server.public_key)
        any_group.counters.reset()
        ct = scheme.encrypt(
            b"warm tables", user.public, server.public_key, LABEL, rng,
            verify_receiver_key=False,
        )
        # U = rG on G's table; the key pairs asG itself, unmultiplied.
        assert any_group.counters.total(FIXED_BASE_MULT) == 1
        assert scheme.decrypt(ct, user, update) == b"warm tables"
        any_group.clear_precomputations()


class TestArchiveCatchUp:
    def test_verify_archive_flags_only_bad_labels(self, group, rng):
        from repro.ec.point import CurvePoint

        server = PassiveTimeServer(group, rng=rng)
        updates = [server.publish_update(epoch_label(i)) for i in range(8)]
        assert verify_archive(group, server.public_key, updates) == []
        updates[3] = TimeBoundKeyUpdate(updates[3].time_label, group.generator)
        point = group.random_point(rng)
        off_curve = CurvePoint(point.curve, point.x, point.y + point.y / point.y)
        updates[5] = TimeBoundKeyUpdate(updates[5].time_label, off_curve)
        updates[6] = TimeBoundKeyUpdate(updates[6].time_label, group.identity())
        assert verify_archive(group, server.public_key, updates) == [
            epoch_label(3),
            epoch_label(5),
            epoch_label(6),
        ]
        group.clear_precomputations()

    def test_bls_precompute_public_verification_unchanged(self, any_group, rng):
        bls = BLSSignatureScheme(any_group)
        keypair = ServerKeyPair.generate(any_group, rng)
        sig = bls.sign(keypair, b"some message")
        assert bls.verify(keypair.public, b"some message", sig)
        bls.precompute_public(keypair.public)
        assert bls.verify(keypair.public, b"some message", sig)
        assert not bls.verify(keypair.public, b"another message", sig)
        any_group.clear_precomputations()
