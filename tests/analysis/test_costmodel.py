"""The symbolic cost model must match the live operation counters.

These tests run each scheme once with the group's counters on and
compare against the declared :class:`OpBudget` — a regression net for
any change that silently alters a scheme's operation count.
"""

import dataclasses

import pytest

from repro.analysis.costmodel import (
    HYBRID_COST,
    IDTRE_COST,
    OpBudget,
    PRECOMP_KEY_CHECK_COST,
    PRECOMP_UPDATE_VERIFY_COST,
    RECEIVER_KEY_CHECK_COST,
    SENDER_KEY_DERIVATION_COST,
    SENDER_LABEL_COST,
    TRE_COST,
    TRE_GT_ENCRYPT_COST,
    TRE_PRECOMP_ENCRYPT_COST,
    UPDATE_KEY_DERIVATION_COST,
    UPDATE_VERIFY_COST,
    archive_verify_cost,
    broadcast_encrypt_cost,
    multiserver_cost,
    resilient_cost,
    tre_batch_decrypt_cost,
)
from repro.core.bls import BLSSignatureScheme
from repro.core.idtre import IdentityTimedReleaseScheme
from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.timeserver import (
    PassiveTimeServer,
    TimeBoundKeyUpdate,
    verify_archive,
)
from repro.core.tre import SHARED_H1_RECEIVERS, TimedReleaseScheme
from repro.pairing import opcount
from repro.pairing.api import PairingGroup

LABEL = b"costmodel-T"


# Fresh per test, overriding the session fixtures: counts are compared
# whole, so no table or line cache another test built may engage a fast
# path the budget does not name.
@pytest.fixture()
def group():
    return PairingGroup("toy64", family="A")


@pytest.fixture()
def server(group, rng):
    return PassiveTimeServer(group, rng=rng)


@pytest.fixture()
def user(group, server, rng):
    return UserKeyPair.generate(group, server.public_key, rng)


def _measure(group, fn):
    with group.counters.measure() as delta:
        fn()
    return delta


BUDGETED = {item.name for item in dataclasses.fields(OpBudget)}


def _assert_budget(measured: dict, budget: OpBudget) -> None:
    """Every count the budget has a field for, compared exactly."""
    assert {k: v for k, v in measured.items() if k in BUDGETED} == budget.as_dict()


def test_budget_fields_are_counter_names():
    counters = {
        value for name, value in vars(opcount).items()
        if name.isupper() and isinstance(value, str)
    }
    assert BUDGETED == counters


class TestFixedBudgets:
    def test_tre(self, group, server, user, rng):
        scheme = TimedReleaseScheme(group)
        measured = _measure(group, lambda: scheme.encrypt(
            b"m" * 32, user.public, server.public_key, LABEL, rng,
            verify_receiver_key=False,
        ))
        _assert_budget(measured, TRE_COST.encrypt)
        ct = scheme.encrypt(
            b"m" * 32, user.public, server.public_key, LABEL, rng,
            verify_receiver_key=False,
        )
        update = server.publish_update(LABEL)
        measured = _measure(group, lambda: scheme.decrypt(ct, user, update))
        _assert_budget(measured, TRE_COST.decrypt)

    def test_idtre(self, group, rng):
        master = ServerKeyPair.generate(group, rng)
        scheme = IdentityTimedReleaseScheme(group)
        measured = _measure(group, lambda: scheme.encrypt(
            b"m" * 32, b"alice", master.public, LABEL, rng
        ))
        _assert_budget(measured, IDTRE_COST.encrypt)
        key = scheme.extract_user_key(master, b"alice")
        ct = scheme.encrypt(b"m" * 32, b"alice", master.public, LABEL, rng)
        server = PassiveTimeServer(group, keypair=master)
        update = server.publish_update(LABEL)
        measured = _measure(group, lambda: scheme.decrypt(ct, key, update))
        _assert_budget(measured, IDTRE_COST.decrypt)

    def test_hybrid(self, group, server, rng):
        from repro.baselines.hybrid_pke_ibe import HybridPkeIbeTimedRelease

        scheme = HybridPkeIbeTimedRelease(group)
        receiver = scheme.generate_receiver_keypair(rng)
        measured = _measure(group, lambda: scheme.encrypt(
            b"m" * 32, receiver.public, server.public_key, LABEL, rng
        ))
        _assert_budget(measured, HYBRID_COST.encrypt)
        ct = scheme.encrypt(
            b"m" * 32, receiver.public, server.public_key, LABEL, rng
        )
        update = server.publish_update(LABEL)
        measured = _measure(
            group, lambda: scheme.decrypt(ct, receiver.private, update)
        )
        _assert_budget(measured, HYBRID_COST.decrypt)

    def test_update_verify(self, group, server):
        update = server.publish_update(b"costmodel-verify")
        # A fresh key object: its first check also derives (c mod q)·sG.
        public = dataclasses.replace(server.public_key)
        measured = _measure(group, lambda: update.verify(group, public))
        _assert_budget(measured, UPDATE_VERIFY_COST + UPDATE_KEY_DERIVATION_COST)
        # A freshly decoded update pays the full check under that key;
        # as the second check on this group it records (D, G) first and
        # replays them...
        fresh = TimeBoundKeyUpdate.from_bytes(group, update.to_bytes(group))
        measured = _measure(group, lambda: fresh.verify(group, public))
        _assert_budget(measured, PRECOMP_UPDATE_VERIFY_COST)
        # ...and asking the same object again costs nothing.
        assert _measure(group, lambda: update.verify(group, public)) == {}

    @pytest.mark.parametrize("threshold", [1, 3])
    def test_share_verify(self, group, rng, threshold):
        """A share check is the update check's multi-pairing plus its
        D = (c mod q)·s_iG, and, on a member's first check, the Feldman
        recomputation of s_iG (one scalar multiplication and one point
        addition per commitment), which is cached per member after
        that.  It records no lines."""
        from repro.core.threshold import ThresholdTimeServer

        coordinator, members = ThresholdTimeServer.setup(
            group, members=3, threshold=threshold, rng=rng
        )
        shares = [member.issue_update_share(LABEL) for member in members]
        first = UPDATE_VERIFY_COST + OpBudget(
            scalar_mult=threshold + 1, point_add=threshold
        )
        repeat = UPDATE_VERIFY_COST + OpBudget(scalar_mult=1)
        for budget, round_shares in ((first, shares), (repeat, shares)):
            for share in round_shares:
                measured = _measure(
                    group, lambda: coordinator.verify_share(share)
                )
                _assert_budget(measured, budget)
        assert not group._seen_once and not group._pairing_precomp

    def test_receiver_key_check(self, group, server, user):
        measured = _measure(
            group,
            lambda: user.public.verify_well_formed(group, server.public_key),
        )
        _assert_budget(measured, RECEIVER_KEY_CHECK_COST)


class TestParametricBudgets:
    @pytest.mark.parametrize("servers", [1, 3])
    def test_multiserver(self, group, rng, servers):
        from repro.core.multiserver import (
            MultiServerTimedReleaseScheme,
            MultiServerUserKeyPair,
        )

        nodes = [PassiveTimeServer(group, rng=rng) for _ in range(servers)]
        scheme = MultiServerTimedReleaseScheme(
            group, [n.public_key for n in nodes]
        )
        user = MultiServerUserKeyPair.generate(
            group, [n.public_key for n in nodes], rng
        )
        budget = multiserver_cost(servers)
        measured = _measure(group, lambda: scheme.encrypt(
            b"m" * 32, user.public, LABEL, rng, verify_receiver_key=False
        ))
        _assert_budget(measured, budget.encrypt)
        ct = scheme.encrypt(
            b"m" * 32, user.public, LABEL, rng, verify_receiver_key=False
        )
        updates = [n.publish_update(LABEL) for n in nodes]
        measured = _measure(group, lambda: scheme.decrypt(
            ct, user.private, updates, verify_updates=False
        ))
        _assert_budget(measured, budget.decrypt)

    @pytest.mark.parametrize("depth", [4, 6])
    def test_resilient(self, group, rng, depth):
        from repro.core.resilient import ResilientTRE, ResilientTimeServer

        server = ResilientTimeServer(group, depth, rng)
        scheme = ResilientTRE(group, server.tree, server.public_key)
        user = scheme.generate_user_keypair(server.public_key, rng)
        budget = resilient_cost(depth)
        epoch = (1 << depth) - 2
        measured = _measure(group, lambda: scheme.encrypt(
            b"m" * 32, user.public, epoch, rng, verify_receiver_key=False
        ))
        _assert_budget(measured, budget.encrypt)
        ct = scheme.encrypt(
            b"m" * 32, user.public, epoch, rng, verify_receiver_key=False
        )
        update = server.publish_update(epoch)
        leaf = scheme.derive_leaf_key(
            scheme.find_covering_key(update, epoch), epoch, rng
        )
        measured = _measure(group, lambda: scheme.decrypt(ct, user, leaf))
        _assert_budget(measured, budget.decrypt)


class TestPrecomputedBudgets:
    """Fast-path budgets, from the cache state each test builds."""

    def test_precomp_encrypt(self, group, server, user, rng):
        scheme = TimedReleaseScheme(group)
        scheme.precompute_sender(user.public, server.public_key)
        measured = _measure(group, lambda: scheme.encrypt(
            b"m" * 32, user.public, server.public_key, LABEL, rng,
            verify_receiver_key=False,
        ))
        _assert_budget(measured, TRE_PRECOMP_ENCRYPT_COST)
        # Primary counters unchanged vs. the cold budget.
        assert TRE_PRECOMP_ENCRYPT_COST == TRE_COST.encrypt + OpBudget(
            fixed_base_mult=1
        )

    def test_gt_fast_path_encrypt(self, group, server, user, rng):
        """The GT fast path *eliminates* the pairing and hash-to-curve —
        the one precomputed variant whose primary counts shrink."""
        scheme = TimedReleaseScheme(group)
        scheme.precompute_sender(
            user.public, server.public_key, time_labels=[LABEL]
        )
        measured = _measure(group, lambda: scheme.encrypt(
            b"m" * 32, user.public, server.public_key, LABEL, rng,
            verify_receiver_key=False,
        ))
        _assert_budget(measured, TRE_GT_ENCRYPT_COST)
        assert "pairing" not in measured
        assert "hash_to_group" not in measured
        assert "hash_to_curve" not in measured

    def test_sender_label_budget(self, group, server, user):
        """One derivation per receiver key object, then each warmed
        label hashes only to H1's map point and replays D's lines."""
        scheme = TimedReleaseScheme(group)
        labels = [LABEL + b":0", LABEL + b":1"]
        measured = _measure(group, lambda: scheme.precompute_sender(
            user.public, server.public_key, time_labels=labels
        ))
        _assert_budget(
            measured,
            SENDER_KEY_DERIVATION_COST + SENDER_LABEL_COST + SENDER_LABEL_COST,
        )
        measured = _measure(group, lambda: scheme.precompute_sender(
            user.public, server.public_key, time_labels=[LABEL + b":2"]
        ))
        _assert_budget(measured, SENDER_LABEL_COST)

    def test_broadcast_encrypt_budget(self, group, server, user, rng):
        from repro.core.broadcast import BroadcastTimedReleaseScheme

        # The smallest cold set that shares r·H1(T).
        others = [
            UserKeyPair.generate(group, server.public_key, rng)
            for _ in range(SHARED_H1_RECEIVERS - 1)
        ]
        receivers = [user.public] + [u.public for u in others]
        scheme = BroadcastTimedReleaseScheme(group)
        with group.counters.measure() as cold:
            scheme.encrypt_broadcast(
                b"m" * 32, receivers, server.public_key, LABEL, rng,
                verify_receiver_keys=False,
            )
        _assert_budget(
            cold, broadcast_encrypt_cost(len(receivers), warm=False)
        )
        # Below SHARED_H1_RECEIVERS the cold recipients pair on H1's one
        # map point (this second send's rG is tabled).
        with group.counters.measure() as cold:
            scheme.encrypt_broadcast(
                b"m" * 32, receivers[:2], server.public_key, LABEL + b":2",
                rng, verify_receiver_keys=False,
            )
        _assert_budget(
            cold,
            broadcast_encrypt_cost(2, warm=False) + OpBudget(fixed_base_mult=1),
        )
        for public in receivers:
            TimedReleaseScheme(group).precompute_sender(
                public, server.public_key, time_labels=[LABEL]
            )
        with group.counters.measure() as warm:
            scheme.encrypt_broadcast(
                b"m" * 32, receivers, server.public_key, LABEL, rng,
                verify_receiver_keys=False,
            )
        _assert_budget(
            warm, broadcast_encrypt_cost(len(receivers), warm=True)
        )

    def test_precomp_update_verify(self, group, server, user):
        BLSSignatureScheme(group).precompute_public(server.public_key)
        update = server.publish_update(LABEL)
        measured = _measure(
            group, lambda: update.verify(group, server.public_key)
        )
        _assert_budget(measured, PRECOMP_UPDATE_VERIFY_COST)

    def test_update_verify_second_use(self, group, server, user):
        """With no precompute call, the third check replays (D, G)."""
        blobs = [
            server.publish_update(LABEL + b"%d" % index).to_bytes(group)
            for index in range(3)
        ]
        updates = [TimeBoundKeyUpdate.from_bytes(group, blob) for blob in blobs]
        for update in updates[:2]:
            assert update.verify(group, server.public_key)
        measured = _measure(
            group, lambda: updates[2].verify(group, server.public_key)
        )
        _assert_budget(measured, PRECOMP_UPDATE_VERIFY_COST)

    def test_precomp_key_check(self, group, server, user):
        """The third check replays the (G, sG) lines the second recorded."""
        for _ in range(2):
            assert user.public.verify_well_formed(group, server.public_key)
        measured = _measure(
            group,
            lambda: user.public.verify_well_formed(group, server.public_key),
        )
        _assert_budget(measured, PRECOMP_KEY_CHECK_COST)
        assert PRECOMP_KEY_CHECK_COST == RECEIVER_KEY_CHECK_COST + OpBudget(
            pairing_precomp=2
        )

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_archive_verify(self, group, server, user, n):
        """One batched equation, no lines recorded; a backlog of one is
        the single check."""
        public = server.public_key
        public.cofactor_s_generator(group)  # D, derived once per key
        blobs = [
            server.publish_update(LABEL + b"%d" % index).to_bytes(group)
            for index in range(n)
        ]
        updates = [TimeBoundKeyUpdate.from_bytes(group, blob) for blob in blobs]
        measured = _measure(
            group, lambda: verify_archive(group, public, updates)
        )
        _assert_budget(measured, archive_verify_cost(n))
        assert not group._pairing_precomp

    def test_archive_verify_fallback(self, group, server, user):
        """One bad update: the failed batch, then the server key's lines
        recorded and every update checked against them."""
        public = server.public_key
        public.cofactor_s_generator(group)
        n = 4
        updates = [
            TimeBoundKeyUpdate.from_bytes(
                group, server.publish_update(LABEL + b"%d" % index).to_bytes(group)
            )
            for index in range(n)
        ]
        updates[1] = TimeBoundKeyUpdate(updates[1].time_label, updates[0].point)
        with group.counters.measure() as measured:
            failed = verify_archive(group, public, updates)
        assert failed == [updates[1].time_label]
        _assert_budget(
            measured, archive_verify_cost(n, fallback=True)
        )
        assert len(group._pairing_precomp) == 2

    @pytest.mark.parametrize("n", [1, 4])
    def test_batch_decrypt(self, group, server, user, rng, n):
        scheme = TimedReleaseScheme(group)
        update = server.publish_update(LABEL)
        cts = [
            scheme.encrypt(
                b"m" * 32, user.public, server.public_key, LABEL, rng,
                verify_receiver_key=False,
            )
            for _ in range(n)
        ]
        measured = _measure(
            group, lambda: scheme.decrypt_batch(cts, user, update)
        )
        _assert_budget(measured, tre_batch_decrypt_cost(n))
