"""Tests for server/user key generation and well-formedness checks."""

import pytest

from repro.core.bls import BLSSignatureScheme
from repro.core.keys import ServerKeyPair, ServerPublicKey, UserKeyPair, UserPublicKey
from repro.core.timeserver import TimeBoundKeyUpdate
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


class TestUpdateCheckSecondUse:
    """The update check records ``(D, G)`` from its second use.

    ``D = (c mod q)·sG`` is the check's fixed argument next to ``G``.
    Every case builds its own group, and every check decodes its update
    afresh, so no earlier accept answers for it.
    """

    LABELS = [f"second-use:T{index}".encode() for index in range(4)]

    @pytest.fixture()
    def fresh(self, rng):
        group = PairingGroup("toy64", family="A")
        keypair = ServerKeyPair.generate(group, rng)
        bls = BLSSignatureScheme(group)
        blobs = [
            TimeBoundKeyUpdate(label, bls.sign(keypair, label)).to_bytes(group)
            for label in self.LABELS
        ]
        return group, keypair.public, blobs

    @staticmethod
    def _check(group, server, update):
        """Verify ``update`` (decoded afresh if given as bytes), counted."""
        if isinstance(update, bytes):
            update = TimeBoundKeyUpdate.from_bytes(group, update)
        with group.counters.measure() as delta:
            verdict = update.verify(group, server)
        return verdict, delta

    @classmethod
    def _forgeries(cls, group, server, blobs):
        """``σ + G``, ``2σ``, the next label's update and ``σ + (0, 0)``.

        A rejected update records nothing, so each is checked as is.
        """
        sigma = TimeBoundKeyUpdate.from_bytes(group, blobs[0]).point
        zero = group.ssc.fp(0)
        points = (
            sigma + server.generator,
            sigma + sigma,
            TimeBoundKeyUpdate.from_bytes(group, blobs[1]).point,
            sigma + group.ssc.curve.point(zero, zero),
        )
        return [TimeBoundKeyUpdate(cls.LABELS[0], point) for point in points]

    def test_first_check_records_nothing(self, fresh):
        group, server, blobs = fresh
        verdict, delta = self._check(group, server, blobs[0])
        assert verdict
        assert group._pairing_precomp == {}
        assert PAIRING_PRECOMP not in delta

    def test_second_check_caches_server_key(self, fresh):
        group, server, blobs = fresh
        for blob in blobs[:2]:
            assert self._check(group, server, blob)[0]
        assert set(group._pairing_precomp) == {
            server.cofactor_s_generator(group), server.generator
        }

    def test_third_check_replays(self, fresh):
        group, server, blobs = fresh
        for blob in blobs[:2]:
            assert self._check(group, server, blob)[0]
        verdict, delta = self._check(group, server, blobs[2])
        assert verdict
        assert len(group._pairing_precomp) == 2
        assert delta[PAIRING_PRECOMP] == 2
        assert delta[MILLER_LOOP] == 2
        assert delta[FINAL_EXP] == 1
        assert delta[MULTI_PAIRING] == 1

    @pytest.mark.parametrize("position", [1, 2, 3])
    def test_forgeries_rejected(self, fresh, position):
        """Each forgery as the fused, recording and replayed check.

        ``σ + (0, 0)`` fails the subgroup check before any pairing, so
        it neither records nor replays.
        """
        group, server, blobs = fresh
        *paired, off_subgroup = self._forgeries(group, server, blobs)
        for forged in paired:
            group.clear_precomputations()
            for blob in blobs[:position - 1]:
                assert self._check(group, server, blob)[0]
            verdict, delta = self._check(group, server, forged)
            assert not verdict
            assert len(group._pairing_precomp) == (0 if position == 1 else 2)
            assert delta.get(PAIRING_PRECOMP, 0) == (0 if position == 1 else 2)
        group.clear_precomputations()
        for blob in blobs[:position - 1]:
            assert self._check(group, server, blob)[0]
        verdict, delta = self._check(group, server, off_subgroup)
        assert not verdict
        assert MILLER_LOOP not in delta
        assert len(group._pairing_precomp) == (2 if position == 3 else 0)

    def test_family_b_records_nothing(self, rng):
        group = PairingGroup("toy64", family="B")
        keypair = ServerKeyPair.generate(group, rng)
        bls = BLSSignatureScheme(group)
        label = self.LABELS[0]
        sigma = bls.sign(keypair, label)
        for _ in range(3):
            assert TimeBoundKeyUpdate(label, sigma).verify(group, keypair.public)
            forged = TimeBoundKeyUpdate(label, sigma + keypair.public.generator)
            assert not forged.verify(group, keypair.public)
        assert group._pairing_precomp == {}

    def test_clear_makes_next_check_cold(self, fresh):
        group, server, blobs = fresh
        for blob in blobs[:3]:
            assert self._check(group, server, blob)[0]
        group.clear_precomputations()
        verdict, delta = self._check(group, server, blobs[3])
        assert verdict
        assert PAIRING_PRECOMP not in delta
        assert group._pairing_precomp == {}
