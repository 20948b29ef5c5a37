"""Tests for server/user key generation and well-formedness checks."""

import pytest

from repro.core.keys import ServerKeyPair, ServerPublicKey, UserKeyPair, UserPublicKey
from repro.errors import EncodingError, KeyValidationError
from repro.pairing.api import PairingGroup
from repro.pairing.opcount import (
    FINAL_EXP,
    MILLER_LOOP,
    MULTI_PAIRING,
    PAIRING_PRECOMP,
)


class TestServerKeys:
    def test_public_key_consistent(self, group, rng):
        kp = ServerKeyPair.generate(group, rng)
        assert kp.public.s_generator == group.mul(kp.public.generator, kp.private)

    def test_custom_generator(self, group, rng):
        custom = group.random_point(rng)
        kp = ServerKeyPair.generate(group, rng, generator=custom)
        assert kp.public.generator == custom

    def test_serialization_roundtrip(self, group, rng):
        kp = ServerKeyPair.generate(group, rng)
        blob = kp.public.to_bytes(group)
        assert ServerPublicKey.from_bytes(group, blob) == kp.public

    def test_bad_blob_rejected(self, group):
        with pytest.raises(EncodingError):
            ServerPublicKey.from_bytes(group, b"\x00\x00\x00\x01" + b"\x00\x00\x00\x00")


class TestUserKeys:
    def test_structure(self, group, server, rng):
        kp = UserKeyPair.generate(group, server.public_key, rng)
        pk_s = server.public_key
        assert kp.public.a_generator == group.mul(pk_s.generator, kp.private)
        assert kp.public.as_generator == group.mul(pk_s.s_generator, kp.private)

    def test_well_formed_accepts_honest_key(self, group, server, user):
        assert user.public.verify_well_formed(group, server.public_key)

    def test_well_formed_rejects_malformed_key(self, group, server, rng):
        honest = UserKeyPair.generate(group, server.public_key, rng)
        # Replace asG with an unrelated point: receiver could then skip
        # the update — exactly what Encrypt step 1 must catch.
        forged = UserPublicKey(
            honest.public.a_generator, group.random_point(rng)
        )
        assert not forged.verify_well_formed(group, server.public_key)
        with pytest.raises(KeyValidationError):
            forged.ensure_well_formed(group, server.public_key)

    def test_well_formed_rejects_swapped_components(self, group, server, user):
        swapped = UserPublicKey(
            user.public.as_generator, user.public.a_generator
        )
        assert not swapped.verify_well_formed(group, server.public_key)

    def test_zero_secret_rejected(self, group, server):
        with pytest.raises(KeyValidationError):
            UserKeyPair.from_secret(group, server.public_key, 0)
        with pytest.raises(KeyValidationError):
            UserKeyPair.from_secret(group, server.public_key, group.q)

    def test_from_password_deterministic(self, group, server):
        k1 = UserKeyPair.from_password(group, server.public_key, "hunter2")
        k2 = UserKeyPair.from_password(group, server.public_key, "hunter2")
        assert k1.private == k2.private
        assert k1.public == k2.public

    def test_from_password_distinct_passwords(self, group, server):
        k1 = UserKeyPair.from_password(group, server.public_key, "alpha")
        k2 = UserKeyPair.from_password(group, server.public_key, "beta")
        assert k1.private != k2.private

    def test_password_key_is_well_formed(self, group, server):
        kp = UserKeyPair.from_password(group, server.public_key, "pw")
        assert kp.public.verify_well_formed(group, server.public_key)

    def test_serialization_roundtrip(self, group, user):
        blob = user.public.to_bytes(group)
        assert UserPublicKey.from_bytes(group, blob) == user.public

    def test_rekey_to_server(self, group, server, user, rng):
        from repro.core.keys import ServerKeyPair

        new_server = ServerKeyPair.generate(group, rng)
        rekeyed = user.rekey_to_server(group, new_server.public)
        assert rekeyed.private == user.private
        assert rekeyed.public.verify_well_formed(group, new_server.public)


class TestKeyCheckSecondUse:
    """The receiver-key check records ``(G, sG)`` from its second use.

    Every case builds its own group so the cache starts empty.
    """

    @pytest.fixture()
    def fresh(self, rng):
        group = PairingGroup("toy64", family="A")
        server = ServerKeyPair.generate(group, rng).public
        user = UserKeyPair.generate(group, server, rng)
        recordings = []
        record = group.tate.precompute_lines

        def counting(point):
            recordings.append(point)
            return record(point)

        group.tate.precompute_lines = counting
        return group, server, user, recordings

    @staticmethod
    def _check(group, key, server):
        with group.counters.measure() as delta:
            verdict = key.verify_well_formed(group, server)
        return verdict, delta

    def test_first_check_records_nothing(self, fresh):
        group, server, user, recordings = fresh
        verdict, delta = self._check(group, user.public, server)
        assert verdict
        assert recordings == []
        assert group._pairing_precomp == {}
        assert PAIRING_PRECOMP not in delta

    def test_second_check_caches_server_key(self, fresh):
        group, server, user, recordings = fresh
        for _ in range(2):
            assert user.public.verify_well_formed(group, server)
        assert set(recordings) == {server.generator, server.s_generator}
        assert set(group._pairing_precomp) == set(recordings)

    def test_third_check_replays(self, fresh):
        group, server, user, recordings = fresh
        for _ in range(2):
            assert user.public.verify_well_formed(group, server)
        verdict, delta = self._check(group, user.public, server)
        assert verdict
        assert len(recordings) == 2
        assert delta[PAIRING_PRECOMP] == 2
        assert delta[MILLER_LOOP] == 2
        assert delta[FINAL_EXP] == 1
        assert delta[MULTI_PAIRING] == 1

    def test_bad_keys_rejected_cold_and_replayed(self, fresh, rng):
        group, server, user, recordings = fresh
        a_g = user.public.a_generator
        forged = UserPublicKey(
            a_g, group.mul(server.generator, group.random_scalar(rng))
        )
        bad = (
            forged,
            UserPublicKey(group.identity(), group.identity()),
            UserPublicKey(a_g, group.identity()),
        )
        for key in bad:
            # Cold: each is the first check since the cache was emptied.
            group.clear_precomputations()
            verdict, delta = self._check(group, key, server)
            assert not verdict
            assert PAIRING_PRECOMP not in delta
        assert recordings == []
        for _ in range(2):
            assert user.public.verify_well_formed(group, server)
        assert len(recordings) == 2
        for key in bad:
            assert not key.verify_well_formed(group, server)
            with pytest.raises(KeyValidationError):
                key.ensure_well_formed(group, server)
        verdict, delta = self._check(group, forged, server)
        assert not verdict
        assert delta[PAIRING_PRECOMP] == 2
        assert len(recordings) == 2

    def test_clear_makes_next_check_cold(self, fresh):
        group, server, user, recordings = fresh
        for _ in range(3):
            assert user.public.verify_well_formed(group, server)
        group.clear_precomputations()
        verdict, delta = self._check(group, user.public, server)
        assert verdict
        assert PAIRING_PRECOMP not in delta
        assert group._pairing_precomp == {}
        assert len(recordings) == 2
        assert user.public.verify_well_formed(group, server)
        assert len(recordings) == 4

    def test_family_b_stays_correct(self, rng):
        group = PairingGroup("toy64", family="B")
        server = ServerKeyPair.generate(group, rng).public
        user = UserKeyPair.generate(group, server, rng)
        forged = UserPublicKey(
            user.public.a_generator, group.random_point(rng)
        )
        for _ in range(3):
            assert user.public.verify_well_formed(group, server)
            assert not forged.verify_well_formed(group, server)
        assert group._pairing_precomp == {}
