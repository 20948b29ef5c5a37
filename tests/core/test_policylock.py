"""Tests for policy-lock encryption (§5.3.2)."""

import pytest

from dataclasses import replace

from repro.core.policylock import DisjunctionCiphertext, PolicyLockScheme
from repro.encoding import pack_chunks
from repro.errors import DecodingError, DecryptionError, PolicyError

CONDITIONS = [b"incident-declared", b"cto-approved", b"legal-signed-off"]


@pytest.fixture(scope="module")
def scheme(group):
    return PolicyLockScheme(group)


class TestConjunction:
    def test_all_attestations_open(self, scheme, server, user, rng):
        ct = scheme.encrypt_all(
            b"secret", user.public, server.public_key, CONDITIONS, rng
        )
        atts = [server.publish_update(c) for c in CONDITIONS]
        assert scheme.decrypt_all(ct, user, atts, server.public_key) == b"secret"

    def test_attestation_order_irrelevant(self, scheme, server, user, rng):
        ct = scheme.encrypt_all(
            b"secret", user.public, server.public_key, CONDITIONS, rng
        )
        atts = [server.publish_update(c) for c in reversed(CONDITIONS)]
        assert scheme.decrypt_all(ct, user, atts, server.public_key) == b"secret"

    def test_missing_attestation_raises(self, scheme, server, user, rng):
        ct = scheme.encrypt_all(
            b"secret", user.public, server.public_key, CONDITIONS, rng
        )
        atts = [server.publish_update(c) for c in CONDITIONS[:-1]]
        with pytest.raises(PolicyError):
            scheme.decrypt_all(ct, user, atts, server.public_key)

    def test_unrelated_attestation_rejected(self, scheme, server, user, rng):
        ct = scheme.encrypt_all(
            b"secret", user.public, server.public_key, CONDITIONS[:2], rng
        )
        atts = [
            server.publish_update(CONDITIONS[0]),
            server.publish_update(b"wrong-condition"),
        ]
        with pytest.raises(PolicyError):
            scheme.decrypt_all(ct, user, atts, server.public_key)

    def test_superset_of_attestations_opens(self, scheme, server, user, rng):
        ct = scheme.encrypt_all(
            b"secret", user.public, server.public_key, CONDITIONS[:2], rng
        )
        atts = [server.publish_update(c) for c in CONDITIONS]
        assert scheme.decrypt_all(ct, user, atts, server.public_key) == b"secret"

    def test_single_condition_equals_tre(self, scheme, group, server, user, rng):
        # With one condition the conjunction IS the TRE construction.
        from repro.core.tre import TimedReleaseScheme

        label = b"just-a-time"
        ct = scheme.encrypt_all(b"m", user.public, server.public_key, [label], rng)
        update = server.publish_update(label)
        assert scheme.decrypt_all(ct, user, [update]) == b"m"
        tre = TimedReleaseScheme(group)
        tre_ct = tre.encrypt(b"m", user.public, server.public_key, label, rng)
        assert tre.decrypt(tre_ct, user, update) == b"m"

    def test_empty_policy_rejected(self, scheme, server, user, rng):
        with pytest.raises(PolicyError):
            scheme.encrypt_all(b"m", user.public, server.public_key, [], rng)

    def test_no_conditions_ciphertext_raises(self, scheme, group, server, user, rng):
        """A stored AND lock re-encoded with no conditions cannot open."""
        from repro.core.policylock import ConjunctionCiphertext

        ct = scheme.encrypt_all(
            b"secret", user.public, server.public_key, CONDITIONS, rng
        )
        stripped = ConjunctionCiphertext.from_bytes(
            group, replace(ct, conditions=()).to_bytes(group)
        )
        atts = [server.publish_update(c) for c in CONDITIONS]
        for given in ([], atts):
            with pytest.raises(PolicyError):
                scheme.decrypt_all(stripped, user, given, server.public_key)

    def test_duplicate_conditions_rejected(self, scheme, server, user, rng):
        with pytest.raises(PolicyError):
            scheme.encrypt_all(
                b"m", user.public, server.public_key, [b"c", b"c"], rng
            )

    def test_wrong_private_key_garbage(self, scheme, group, server, user, rng):
        from repro.core.keys import UserKeyPair

        ct = scheme.encrypt_all(
            b"secret", user.public, server.public_key, CONDITIONS, rng
        )
        atts = [server.publish_update(c) for c in CONDITIONS]
        other = UserKeyPair.generate(group, server.public_key, rng)
        assert scheme.decrypt_all(ct, other, atts) != b"secret"

    def test_serialization(self, scheme, group, server, user, rng):
        from repro.core.policylock import ConjunctionCiphertext

        ct = scheme.encrypt_all(
            b"m", user.public, server.public_key, CONDITIONS, rng
        )
        assert ConjunctionCiphertext.from_bytes(group, ct.to_bytes(group)) == ct


class TestDisjunction:
    def test_any_single_attestation_opens(self, scheme, server, user, rng):
        ct = scheme.encrypt_any(
            b"runbook", user.public, server.public_key, CONDITIONS, rng
        )
        for condition in CONDITIONS:
            att = server.publish_update(condition)
            assert scheme.decrypt_any(ct, user, att, server.public_key) == b"runbook"

    def test_unlisted_condition_rejected(self, scheme, server, user, rng):
        ct = scheme.encrypt_any(
            b"m", user.public, server.public_key, CONDITIONS, rng
        )
        att = server.publish_update(b"not-in-the-policy")
        with pytest.raises(PolicyError):
            scheme.decrypt_any(ct, user, att, server.public_key)

    def test_wrong_receiver_fails_loudly(self, scheme, group, server, user, rng):
        from repro.core.keys import UserKeyPair

        ct = scheme.encrypt_any(
            b"m", user.public, server.public_key, CONDITIONS, rng
        )
        att = server.publish_update(CONDITIONS[0])
        other = UserKeyPair.generate(group, server.public_key, rng)
        with pytest.raises(DecryptionError):
            scheme.decrypt_any(ct, other, att)

    def test_empty_policy_rejected(self, scheme, server, user, rng):
        with pytest.raises(PolicyError):
            scheme.encrypt_any(b"m", user.public, server.public_key, [], rng)

    def test_serialization(self, scheme, group, server, user, rng):
        ct = scheme.encrypt_any(
            b"m", user.public, server.public_key, CONDITIONS, rng
        )
        restored = DisjunctionCiphertext.from_bytes(group, ct.to_bytes(group))
        assert restored == ct
        att = server.publish_update(CONDITIONS[1])
        assert scheme.decrypt_any(restored, user, att, server.public_key) == b"m"

    @pytest.mark.parametrize("malform", [
        lambda ct: replace(ct, sealed=pack_chunks(ct.sealed)),
        lambda ct: replace(ct, u_points=ct.u_points[:-1]),
        lambda ct: replace(ct, sealed=pack_chunks(pack_chunks(b"k"), b"")),
    ], ids=["one-chunk-sealed", "short-u-points", "short-masked-keys"])
    def test_malformed_branches_are_decoding_errors(
        self, scheme, server, user, rng, malform
    ):
        ct = malform(scheme.encrypt_any(
            b"m", user.public, server.public_key, CONDITIONS, rng
        ))
        att = server.publish_update(CONDITIONS[-1])
        with pytest.raises(DecodingError):
            scheme.decrypt_any(ct, user, att, server.public_key)
