"""Tests for BLS short signatures (the substance of the key updates)."""

import pytest

from repro.core.bls import BLSSignatureScheme
from repro.core.keys import ServerKeyPair


@pytest.fixture(scope="module")
def scheme(group):
    return BLSSignatureScheme(group)


@pytest.fixture(scope="module")
def keypair(group, session_rng):
    return ServerKeyPair.generate(group, session_rng)


class TestSignVerify:
    def test_valid_signature_accepted(self, scheme, keypair):
        sig = scheme.sign(keypair, b"2026-07-05")
        assert scheme.verify(keypair.public, b"2026-07-05", sig)

    def test_wrong_message_rejected(self, scheme, keypair):
        sig = scheme.sign(keypair, b"m1")
        assert not scheme.verify(keypair.public, b"m2", sig)

    def test_wrong_key_rejected(self, scheme, keypair, group, rng):
        other = ServerKeyPair.generate(group, rng)
        sig = scheme.sign(keypair, b"m")
        assert not scheme.verify(other.public, b"m", sig)

    def test_tampered_signature_rejected(self, scheme, keypair, group):
        sig = scheme.sign(keypair, b"m")
        assert not scheme.verify(keypair.public, b"m", group.add(sig, group.generator))

    def test_infinity_rejected(self, scheme, keypair, group):
        assert not scheme.verify(keypair.public, b"m", group.identity())

    def test_out_of_subgroup_rejected(self, scheme, keypair, group, rng):
        # A full-curve point outside the q-subgroup must not verify.
        full = group.ssc.curve.random_point(rng)
        if group.in_group(full):
            full = full + group.ssc.curve.random_point(rng)
        if group.in_group(full):
            pytest.skip("sampled subgroup point twice")
        assert not scheme.verify(keypair.public, b"m", full)

    def test_signature_deterministic(self, scheme, keypair):
        assert scheme.sign(keypair, b"m") == scheme.sign(keypair, b"m")

    def test_signature_is_short(self, scheme, keypair, group):
        # One G1 point: half the size of a (point, scalar)-style signature.
        sig = scheme.sign(keypair, b"m")
        assert len(group.point_to_bytes(sig)) == group.point_bytes
