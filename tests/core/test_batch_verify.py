"""Tests for batch verification of updates/BLS signatures."""

import pytest

from repro.core.bls import BLSSignatureScheme
from repro.core.keys import ServerKeyPair
from repro.core.timeserver import (
    PassiveTimeServer,
    TimeBoundKeyUpdate,
    batch_verify_updates,
)


@pytest.fixture(scope="module")
def backlog(group, session_rng):
    server = PassiveTimeServer(group, rng=session_rng)
    updates = [server.publish_update(f"batch-{i}".encode()) for i in range(12)]
    return server, updates


class TestBatchVerifyUpdates:
    def test_genuine_backlog_accepted(self, group, backlog, rng):
        server, updates = backlog
        assert batch_verify_updates(group, server.public_key, updates, rng)

    def test_single_update_batch(self, group, backlog, rng):
        server, updates = backlog
        assert batch_verify_updates(group, server.public_key, updates[:1], rng)

    def test_empty_batch_rejected(self, group, backlog, rng):
        server, _ = backlog
        assert not batch_verify_updates(group, server.public_key, [], rng)

    def test_one_forged_update_poisons_batch(self, group, backlog, rng):
        server, updates = backlog
        forged = list(updates)
        forged[7] = TimeBoundKeyUpdate(b"batch-7", group.random_point(rng))
        assert not batch_verify_updates(group, server.public_key, forged, rng)

    def test_swapped_labels_rejected(self, group, backlog, rng):
        server, updates = backlog
        swapped = list(updates)
        swapped[0] = TimeBoundKeyUpdate(updates[1].time_label, updates[0].point)
        swapped[1] = TimeBoundKeyUpdate(updates[0].time_label, updates[1].point)
        assert not batch_verify_updates(group, server.public_key, swapped, rng)

    def test_other_servers_update_rejected(self, group, backlog, rng):
        server, updates = backlog
        other = PassiveTimeServer(group, rng=rng)
        mixed = updates[:-1] + [other.publish_update(b"batch-11")]
        assert not batch_verify_updates(group, server.public_key, mixed, rng)

    def test_infinity_point_rejected(self, group, backlog, rng):
        server, updates = backlog
        bad = updates[:-1] + [TimeBoundKeyUpdate(b"batch-11", group.identity())]
        assert not batch_verify_updates(group, server.public_key, bad, rng)

    def test_cost_is_two_pairings(self, group, backlog, rng):
        server, updates = backlog
        with group.counters.measure() as ops:
            assert batch_verify_updates(group, server.public_key, updates, rng)
        assert ops.get("pairing", 0) == 2
        # versus 2 per update when verified one by one:
        with group.counters.measure() as ops_individual:
            for update in updates:
                assert update.verify(group, server.public_key)
        assert ops_individual.get("pairing", 0) == 2 * len(updates)


class TestForgedUpdateInLargeArchive:
    """Adversarial: one forgery hiding in a 32-update archive.

    Every batch-shaped verifier — the 2-pairing small-exponent batch,
    the per-update multi-pairing ratio check, and its process-parallel
    sharding — must catch a single forged update among 31 genuine ones,
    at every forgery position tried.
    """

    @pytest.fixture(scope="class")
    def archive32(self, group, session_rng):
        server = PassiveTimeServer(group, rng=session_rng)
        updates = [
            server.publish_update(f"archive32-{i:02d}".encode())
            for i in range(32)
        ]
        return server, updates

    @pytest.mark.parametrize("position", [0, 13, 31])
    def test_batch_verify_catches_single_forgery(
        self, group, archive32, rng, position
    ):
        server, updates = archive32
        forged = list(updates)
        forged[position] = TimeBoundKeyUpdate(
            updates[position].time_label, group.random_point(rng)
        )
        assert batch_verify_updates(group, server.public_key, updates, rng)
        assert not batch_verify_updates(group, server.public_key, forged, rng)

    @pytest.mark.parametrize("position", [0, 13, 31])
    def test_ratio_check_pinpoints_single_forgery(
        self, group, archive32, rng, position
    ):
        from repro.core.timeserver import verify_archive

        server, updates = archive32
        forged = list(updates)
        forged[position] = TimeBoundKeyUpdate(
            updates[position].time_label, group.random_point(rng)
        )
        expected = [updates[position].time_label]
        assert verify_archive(group, server.public_key, forged) == expected

    def test_pair_ratio_is_one_on_each_update(self, group, archive32, rng):
        """The underlying primitive: per-update ê(sG,H1(T)) / ê(G,I_T)."""
        server, updates = archive32
        public = server.public_key
        bls = BLSSignatureScheme(group)
        forged_point = group.random_point(rng)
        for update in updates[:4]:
            assert group.pair_ratio_is_one(
                ((public.s_generator, bls.hash_message(update.time_label)),),
                ((public.generator, update.point),),
            )
            assert not group.pair_ratio_is_one(
                ((public.s_generator, bls.hash_message(update.time_label)),),
                ((public.generator, forged_point),),
            )

    def test_infinity_forgery_rejected(self, group, archive32, rng):
        from repro.core.timeserver import verify_archive

        server, updates = archive32
        forged = list(updates)
        forged[7] = TimeBoundKeyUpdate(updates[7].time_label, group.identity())
        assert verify_archive(group, server.public_key, forged) == [
            updates[7].time_label
        ]
        assert not batch_verify_updates(group, server.public_key, forged, rng)


class TestBatchVerifyBLS:
    def test_forged_signature_cannot_hide_behind_valid_ones(
        self, group, session_rng, rng
    ):
        keypair = ServerKeyPair.generate(group, session_rng)
        bls = BLSSignatureScheme(group)
        messages = [f"m{i}".encode() for i in range(6)]
        signatures = [bls.sign(keypair, m) for m in messages]
        assert bls.batch_verify(keypair.public, messages, signatures, rng)
        # Forge-by-cancellation attempt: shift one signature by +D and
        # another by -D. Random exponents make the shifts not cancel.
        delta = group.random_point(rng)
        cooked = list(signatures)
        cooked[0] = group.add(cooked[0], delta)
        cooked[1] = group.add(cooked[1], group.negate(delta))
        assert not bls.batch_verify(keypair.public, messages, cooked, rng)

    def test_length_mismatch_rejected(self, group, session_rng, rng):
        keypair = ServerKeyPair.generate(group, session_rng)
        bls = BLSSignatureScheme(group)
        sig = bls.sign(keypair, b"m")
        assert not bls.batch_verify(keypair.public, [b"m", b"n"], [sig], rng)
