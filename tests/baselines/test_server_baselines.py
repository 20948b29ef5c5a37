"""Tests for the Rivest-server and Mont-vault baselines."""

import pytest

from repro.baselines.mont_vault import MontTimeVault, vault_identity
from repro.baselines.rivest_server import (
    RivestKeyReleaseServer,
    RivestPublicKeyServer,
)
from repro.errors import DecryptionError, UpdateNotAvailableError


class TestRivestSymmetric:
    def test_roundtrip(self):
        server = RivestKeyReleaseServer(b"seed")
        ct = server.encrypt_for_sender(b"alice", b"msg", 7)
        key = server.publish_epoch_key(7)
        assert server.decrypt(ct, key, 7) == b"msg"

    def test_wrong_epoch_key_fails(self):
        server = RivestKeyReleaseServer(b"seed")
        ct = server.encrypt_for_sender(b"alice", b"msg", 7)
        with pytest.raises(DecryptionError):
            server.decrypt(ct, server.publish_epoch_key(8), 7)

    def test_server_sees_sender_and_release_time(self):
        server = RivestKeyReleaseServer(b"seed")
        server.encrypt_for_sender(b"alice", b"msg", 7)
        assert b"alice" in server.knowledge.senders
        assert 7 in server.knowledge.release_times_seen
        assert server.encryptions_served == 1

    def test_keys_reproducible_from_seed_only(self):
        s1 = RivestKeyReleaseServer(b"seed")
        s2 = RivestKeyReleaseServer(b"seed")
        assert s1.publish_epoch_key(3) == s2.publish_epoch_key(3)
        assert s1.publish_epoch_key(3) != s1.publish_epoch_key(4)


class TestRivestPublicKey:
    def test_roundtrip(self, group, rng):
        server = RivestPublicKeyServer(group, horizon=5, rng=rng)
        ct = server.encrypt(b"msg", 2, rng)
        sk = server.release_private_key(2)
        assert server.decrypt(ct, sk) == b"msg"

    def test_beyond_horizon_blocks_sender(self, group, rng):
        server = RivestPublicKeyServer(group, horizon=3, rng=rng)
        with pytest.raises(UpdateNotAvailableError):
            server.public_key_for_epoch(3)

    def test_extend_horizon(self, group, rng):
        server = RivestPublicKeyServer(group, horizon=2, rng=rng)
        assert server.extend_horizon(3, rng) == 5
        server.public_key_for_epoch(4)

    def test_directory_grows_linearly(self, group, rng):
        small = RivestPublicKeyServer(group, horizon=10, rng=rng)
        large = RivestPublicKeyServer(group, horizon=100, rng=rng)
        assert large.published_directory_bytes() == 10 * small.published_directory_bytes()


class TestMontVault:
    def test_roundtrip(self, group, rng):
        vault = MontTimeVault(group, rng)
        vault.register_receiver(b"bob")
        ct = vault.encrypt(b"m", b"bob", b"T1", rng)
        keys = vault.start_epoch(b"T1")
        assert vault.decrypt(ct, keys[b"bob"]) == b"m"

    def test_per_user_delivery_cost(self, group, rng):
        vault = MontTimeVault(group, rng)
        for i in range(7):
            vault.register_receiver(f"user-{i}".encode())
        vault.start_epoch(b"T1")
        assert vault.keys_delivered == 7
        vault.start_epoch(b"T2")
        assert vault.keys_delivered == 14
        assert vault.bytes_delivered == 14 * group.point_bytes

    def test_server_escrow(self, group, rng):
        vault = MontTimeVault(group, rng)
        ct = vault.encrypt(b"supposedly private", b"bob", b"T1", rng)
        assert vault.server_decrypt(ct, b"bob", b"T1") == b"supposedly private"

    def test_registration_reveals_receivers(self, group, rng):
        vault = MontTimeVault(group, rng)
        vault.register_receiver(b"bob")
        assert b"bob" in vault.knowledge.registered_receivers

    def test_identity_framing_unambiguous(self):
        assert vault_identity(b"ab", b"c") != vault_identity(b"a", b"bc")

    def test_cross_epoch_key_useless(self, group, rng):
        vault = MontTimeVault(group, rng)
        vault.register_receiver(b"bob")
        ct = vault.encrypt(b"m", b"bob", b"T2", rng)
        keys_t1 = vault.start_epoch(b"T1")
        assert vault.decrypt(ct, keys_t1[b"bob"]) != b"m"
