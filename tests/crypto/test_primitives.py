"""Tests for the symmetric building blocks (KDF, stream, MAC, RNG)."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.kdf import derive_key, derive_subkeys
from repro.crypto.mac import MAC_BYTES, compute_mac, verify_mac
from repro.crypto.rng import seeded_rng, system_rng
from repro.crypto.stream import keystream, stream_xor
from repro.encoding import xor_bytes
from repro.errors import EncodingError, ParameterError


class TestKdf:
    def test_length(self):
        for n in (0, 1, 31, 32, 33, 100):
            assert len(derive_key(b"secret", n)) == n

    def test_deterministic(self):
        assert derive_key(b"s", 32) == derive_key(b"s", 32)

    def test_label_separation(self):
        assert derive_key(b"s", 32, "a") != derive_key(b"s", 32, "b")

    def test_secret_separation(self):
        assert derive_key(b"s1", 32) != derive_key(b"s2", 32)

    def test_prefix_consistency(self):
        assert derive_key(b"s", 64)[:32] == derive_key(b"s", 32)

    def test_negative_length_raises(self):
        with pytest.raises(ParameterError):
            derive_key(b"s", -1)

    def test_subkeys_independent(self):
        k1, k2 = derive_subkeys(b"s", "enc", "mac")
        assert k1 != k2
        assert len(k1) == len(k2) == 32


class TestStream:
    def test_xor_involution(self):
        data = b"attack at dawn" * 10
        ct = stream_xor(b"key", b"nonce", data)
        assert ct != data
        assert stream_xor(b"key", b"nonce", ct) == data

    def test_nonce_matters(self):
        assert stream_xor(b"k", b"n1", b"data!") != stream_xor(b"k", b"n2", b"data!")

    def test_keystream_length(self):
        for n in (0, 1, 32, 33, 97):
            assert len(keystream(b"k", b"n", n)) == n

    def test_keystream_prefix(self):
        assert keystream(b"k", b"n", 100)[:10] == keystream(b"k", b"n", 10)

    def test_key_nonce_framing(self):
        # (k="ab", n="c") must differ from (k="a", n="bc").
        assert keystream(b"ab", b"c", 32) != keystream(b"a", b"bc", 32)

    @given(st.binary(max_size=200))
    def test_roundtrip_property(self, data):
        assert stream_xor(b"k", b"n", stream_xor(b"k", b"n", data)) == data


class TestMac:
    def test_verify_accepts(self):
        tag = compute_mac(b"key", b"part1", b"part2")
        assert len(tag) == MAC_BYTES
        assert verify_mac(b"key", tag, b"part1", b"part2")

    def test_verify_rejects_tamper(self):
        tag = compute_mac(b"key", b"msg")
        assert not verify_mac(b"key", tag, b"msG")
        assert not verify_mac(b"kEy", tag, b"msg")
        assert not verify_mac(b"key", xor_bytes(tag, b"\x01" + b"\x00" * 31), b"msg")

    def test_framing_unambiguous(self):
        assert compute_mac(b"k", b"ab", b"c") != compute_mac(b"k", b"a", b"bc")


class TestXorBytes:
    def test_length_mismatch_raises(self):
        with pytest.raises(EncodingError):
            xor_bytes(b"ab", b"a")

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_self_inverse(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert xor_bytes(xor_bytes(a, b), b) == a


class TestRng:
    def test_seeded_deterministic(self):
        assert seeded_rng(5).random() == seeded_rng(5).random()

    def test_system_rng_works(self):
        r = system_rng()
        assert 0 <= r.randrange(100) < 100
