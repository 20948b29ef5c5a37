"""The sender GT fast path is a pure accelerator — bytes never change.

``precompute_sender(..., time_labels=[T])`` caches the constant pairing
``ê(asG, H1(T))`` and a windowed exponentiation table for it on the
group.  Every scheme that rides the cache (TRE, ID-TRE, hybrid, FO,
REACT) must emit ciphertexts byte-identical to the cold path for the
same rng seed, in both curve families and at production size —
bilinearity guarantees the same GT element, canonical field
representation the same bytes.
"""

import random

import pytest

from repro.core.broadcast import BroadcastTimedReleaseScheme
from repro.core.fujisaki_okamoto import FOTimedReleaseScheme
from repro.core.hybrid_tre import HybridTimedReleaseScheme
from repro.core.idtre import IdentityTimedReleaseScheme
from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.react import ReactTimedReleaseScheme
from repro.core.timeserver import PassiveTimeServer
from repro.core.tre import TimedReleaseScheme
from repro.pairing.api import GT_EXP, GT_FIXED_BASE, PairingGroup

LABEL = b"gt-fast-path-T"
MESSAGE = b"the ciphertext bytes must not change" * 2
SEED = 0x6F457
WRAPPERS = (HybridTimedReleaseScheme, FOTimedReleaseScheme, ReactTimedReleaseScheme)


def _setup(group):
    rng = random.Random(SEED)
    server = ServerKeyPair.generate(group, rng)
    user = UserKeyPair.generate(group, server.public, rng)
    return server, user


class TestTREByteIdentity:
    def test_cached_equals_direct(self, any_group):
        group = any_group
        server, user = _setup(group)
        scheme = TimedReleaseScheme(group)
        cold = scheme.encrypt(
            MESSAGE, user.public, server.public, LABEL, random.Random(1),
            verify_receiver_key=False,
        )
        scheme.precompute_sender(user.public, server.public, time_labels=[LABEL])
        with group.counters.measure() as ops:
            warm = scheme.encrypt(
                MESSAGE, user.public, server.public, LABEL, random.Random(1),
                verify_receiver_key=False,
            )
        assert warm.to_bytes(group) == cold.to_bytes(group)
        # The fast path really engaged: a table-driven GT exponentiation
        # and no pairing.
        assert ops.get(GT_FIXED_BASE) == 1
        assert ops.get(GT_EXP) == 1
        assert "pairing" not in ops
        assert "hash_to_group" not in ops

    def test_warm_ciphertext_decrypts(self, any_group):
        group = any_group
        server, user = _setup(group)
        ts = PassiveTimeServer(group, keypair=server)
        scheme = TimedReleaseScheme(group)
        scheme.precompute_sender(user.public, server.public, time_labels=[LABEL])
        ct = scheme.encrypt(
            MESSAGE, user.public, server.public, LABEL, random.Random(2),
            verify_receiver_key=False,
        )
        assert scheme.decrypt(ct, user, ts.issue_update(LABEL)) == MESSAGE

    def test_clear_precomputations_restores_cold_path(self, group):
        server, user = _setup(group)
        scheme = TimedReleaseScheme(group)
        scheme.precompute_sender(user.public, server.public, time_labels=[LABEL])
        group.clear_precomputations()
        with group.counters.measure() as ops:
            scheme.encrypt(
                MESSAGE, user.public, server.public, LABEL, random.Random(3),
                verify_receiver_key=False,
            )
        assert ops.get("pairing") == 1
        assert GT_FIXED_BASE not in ops

    def test_multiple_labels_cached_independently(self, group):
        server, user = _setup(group)
        scheme = TimedReleaseScheme(group)
        labels = [b"epoch-1", b"epoch-2", b"epoch-3"]
        colds = [
            scheme.encrypt(
                MESSAGE, user.public, server.public, label, random.Random(4),
                verify_receiver_key=False,
            ).to_bytes(group)
            for label in labels
        ]
        group.clear_precomputations()
        scheme.precompute_sender(user.public, server.public, time_labels=labels)
        warms = [
            scheme.encrypt(
                MESSAGE, user.public, server.public, label, random.Random(4),
                verify_receiver_key=False,
            ).to_bytes(group)
            for label in labels
        ]
        assert warms == colds

    def test_ss512_byte_identity(self):
        group = PairingGroup("ss512", family="A")
        server, user = _setup(group)
        scheme = TimedReleaseScheme(group)
        cold = scheme.encrypt(
            MESSAGE, user.public, server.public, LABEL, random.Random(5),
            verify_receiver_key=False,
        )
        scheme.precompute_sender(user.public, server.public, time_labels=[LABEL])
        warm = scheme.encrypt(
            MESSAGE, user.public, server.public, LABEL, random.Random(5),
            verify_receiver_key=False,
        )
        assert warm.to_bytes(group) == cold.to_bytes(group)


class TestIDTREByteIdentity:
    def test_cached_equals_direct(self, any_group):
        group = any_group
        rng = random.Random(SEED)
        server = ServerKeyPair.generate(group, rng)
        scheme = IdentityTimedReleaseScheme(group)
        identity = b"alice@example.org"
        cold = scheme.encrypt(
            MESSAGE, identity, server.public, LABEL, random.Random(6)
        )
        scheme.precompute_sender(
            server.public, identities=[identity], time_labels=[LABEL]
        )
        with group.counters.measure() as ops:
            warm = scheme.encrypt(
                MESSAGE, identity, server.public, LABEL, random.Random(6)
            )
        assert warm.to_bytes(group) == cold.to_bytes(group)
        # One table-driven GT exponentiation per label, ID and T.
        assert ops.get(GT_FIXED_BASE) == 2
        assert "pairing" not in ops

    def test_warm_ciphertext_decrypts(self, group):
        rng = random.Random(SEED)
        server = ServerKeyPair.generate(group, rng)
        ts = PassiveTimeServer(group, keypair=server)
        scheme = IdentityTimedReleaseScheme(group)
        identity = b"bob@example.org"
        scheme.precompute_sender(
            server.public, identities=[identity], time_labels=[LABEL]
        )
        ct = scheme.encrypt(
            MESSAGE, identity, server.public, LABEL, random.Random(7)
        )
        user_key = scheme.extract_user_key(server, identity)
        assert scheme.decrypt(ct, user_key, ts.issue_update(LABEL)) == MESSAGE


class TestWrapperByteIdentity:
    @pytest.mark.parametrize("cls", WRAPPERS, ids=lambda c: c.__name__)
    def test_cached_equals_direct(self, any_group, cls):
        group = any_group
        server, user = _setup(group)
        scheme = cls(group)
        group.clear_precomputations()
        cold = scheme.encrypt(
            MESSAGE, user.public, server.public, LABEL, random.Random(8),
            verify_receiver_key=False,
        )
        TimedReleaseScheme(group).precompute_sender(
            user.public, server.public, time_labels=[LABEL]
        )
        warm = scheme.encrypt(
            MESSAGE, user.public, server.public, LABEL, random.Random(8),
            verify_receiver_key=False,
        )
        assert warm.to_bytes(group) == cold.to_bytes(group)
        group.clear_precomputations()

    @pytest.mark.parametrize("cls", WRAPPERS, ids=lambda c: c.__name__)
    def test_warm_ciphertext_decrypts(self, group, cls):
        server, user = _setup(group)
        ts = PassiveTimeServer(group, keypair=server)
        scheme = cls(group)
        TimedReleaseScheme(group).precompute_sender(
            user.public, server.public, time_labels=[LABEL]
        )
        ct = scheme.encrypt(
            MESSAGE, user.public, server.public, LABEL, random.Random(9),
            verify_receiver_key=False,
        )
        update = ts.issue_update(LABEL)
        assert scheme.decrypt(ct, user, update, server.public) == MESSAGE


class TestOneWarmState:
    """The group holds every warm ``g_{R,T}``: one warm-up serves each
    layer on the KEM, and ``clear_precomputations`` is the one reset."""

    def test_scheme_holds_only_its_group(self, group):
        assert vars(TimedReleaseScheme(group)) == {"group": group}

    @pytest.mark.parametrize("layer", ["hybrid", "fo", "broadcast"])
    def test_layers_share_one_warm_up(self, layer):
        group = PairingGroup("toy64", family="A")
        server, user = _setup(group)

        def encrypt(seed):
            rng = random.Random(seed)
            if layer == "broadcast":
                return BroadcastTimedReleaseScheme(group).encrypt_broadcast(
                    MESSAGE, [user.public], server.public, LABEL, rng,
                    verify_receiver_keys=False,
                )
            cls = {"hybrid": HybridTimedReleaseScheme,
                   "fo": FOTimedReleaseScheme}[layer]
            return cls(group).encrypt(
                MESSAGE, user.public, server.public, LABEL, rng,
                verify_receiver_key=False,
            )

        def counted():
            with group.counters.measure() as ops:
                ciphertext = encrypt(10)
            return ciphertext.to_bytes(group), ops

        cold, cold_ops = counted()
        assert cold_ops["pairing"] == 1
        TimedReleaseScheme(group).precompute_sender(
            user.public, server.public, time_labels=[LABEL]
        )
        warm, warm_ops = counted()
        assert warm == cold
        assert warm_ops.get("pairing", 0) == 0
        assert warm_ops.get("hash_to_curve", 0) == 0
        group.clear_precomputations()
        again, again_ops = counted()
        assert again == cold
        assert again_ops == cold_ops
