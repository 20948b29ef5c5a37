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
from repro.pairing.api import PairingGroup

LABEL = b"costmodel-T"


def _measure(group, fn):
    with group.counters.measure() as delta:
        fn()
    return delta


def _assert_budget(measured: dict, budget) -> None:
    expected = budget.as_dict()
    relevant = {
        k: v for k, v in measured.items()
        if k in (
            "pairing", "scalar_mult", "hash_to_group", "hash_to_curve",
            "gt_exp", "point_add", "miller_loop", "final_exp", "multi_pair",
            "multi_scalar_mult",
        )
    }
    # point_add counts are advisory; compare the expensive ops exactly.
    relevant.pop("point_add", None)
    expected.pop("point_add", None)
    assert relevant == expected


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
        # A freshly decoded update pays the full check under that key...
        fresh = TimeBoundKeyUpdate.from_bytes(group, update.to_bytes(group))
        measured = _measure(group, lambda: fresh.verify(group, public))
        _assert_budget(measured, UPDATE_VERIFY_COST)
        # ...and asking the same object again costs nothing.
        assert _measure(group, lambda: update.verify(group, public)) == {}

    @pytest.mark.parametrize("threshold", [1, 3])
    def test_share_verify(self, rng, threshold):
        """A share check is the update check's multi-pairing plus its
        D = (c mod q)·s_iG, and, on a member's first check, the Feldman
        recomputation of s_iG (one scalar multiplication per
        commitment), which is cached per member after that.  It records
        no lines."""
        from repro.core.threshold import ThresholdTimeServer

        group = PairingGroup("toy64", family="A")
        coordinator, members = ThresholdTimeServer.setup(
            group, members=3, threshold=threshold, rng=rng
        )
        shares = [member.issue_update_share(LABEL) for member in members]
        first = UPDATE_VERIFY_COST + OpBudget(scalar_mults=threshold + 1)
        repeat = UPDATE_VERIFY_COST + OpBudget(scalar_mults=1)
        for budget, round_shares in ((first, shares), (repeat, shares)):
            for share in round_shares:
                measured = _measure(
                    group, lambda: coordinator.verify_share(share)
                )
                _assert_budget_with_advisory(measured, budget)
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


def _assert_budget_with_advisory(measured: dict, budget) -> None:
    """Exact comparison including the fast-path sub-counters."""
    names = (
        "pairing", "scalar_mult", "hash_to_group", "hash_to_curve", "gt_exp",
        "fixed_base_mult", "pairing_precomp", "gt_fixed_base",
        "miller_loop", "final_exp", "multi_pair", "multi_scalar_mult",
    )
    relevant = {k: v for k, v in measured.items() if k in names}
    expected = budget.as_dict()
    expected.pop("point_add", None)
    assert relevant == expected


class TestPrecomputedBudgets:
    """Fast-path budgets, measured on fresh groups to control cache state."""

    @pytest.fixture()
    def fresh(self, rng):
        group = PairingGroup("toy64", family="A")
        server = PassiveTimeServer(group, rng=rng)
        user = UserKeyPair.generate(group, server.public_key, rng)
        return group, server, user

    def test_precomp_encrypt(self, fresh, rng):
        group, server, user = fresh
        scheme = TimedReleaseScheme(group)
        scheme.precompute_sender(user.public, server.public_key)
        measured = _measure(group, lambda: scheme.encrypt(
            b"m" * 32, user.public, server.public_key, LABEL, rng,
            verify_receiver_key=False,
        ))
        _assert_budget_with_advisory(measured, TRE_PRECOMP_ENCRYPT_COST)
        # Primary counters unchanged vs. the cold budget.
        _assert_budget(measured, TRE_COST.encrypt)

    def test_gt_fast_path_encrypt(self, fresh, rng):
        """The GT fast path *eliminates* the pairing and hash-to-curve —
        the one precomputed variant whose primary counts shrink."""
        group, server, user = fresh
        scheme = TimedReleaseScheme(group)
        scheme.precompute_sender(
            user.public, server.public_key, time_labels=[LABEL]
        )
        measured = _measure(group, lambda: scheme.encrypt(
            b"m" * 32, user.public, server.public_key, LABEL, rng,
            verify_receiver_key=False,
        ))
        _assert_budget_with_advisory(measured, TRE_GT_ENCRYPT_COST)
        assert "pairing" not in measured
        assert "hash_to_group" not in measured
        assert "hash_to_curve" not in measured

    def test_sender_label_budget(self, fresh):
        """One derivation per receiver key object, then each warmed
        label hashes only to H1's map point and replays D's lines."""
        group, server, user = fresh
        scheme = TimedReleaseScheme(group)
        labels = [LABEL + b":0", LABEL + b":1"]
        measured = _measure(group, lambda: scheme.precompute_sender(
            user.public, server.public_key, time_labels=labels
        ))
        _assert_budget_with_advisory(
            measured,
            SENDER_KEY_DERIVATION_COST + SENDER_LABEL_COST + SENDER_LABEL_COST,
        )
        measured = _measure(group, lambda: scheme.precompute_sender(
            user.public, server.public_key, time_labels=[LABEL + b":2"]
        ))
        _assert_budget_with_advisory(measured, SENDER_LABEL_COST)

    def test_broadcast_encrypt_budget(self, fresh, rng):
        from repro.core.broadcast import BroadcastTimedReleaseScheme

        group, server, user = fresh
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
        _assert_budget_with_advisory(
            cold, broadcast_encrypt_cost(len(receivers), warm=False)
        )
        # Below SHARED_H1_RECEIVERS the cold recipients pair on H1's one
        # map point (primary counts: this second send's rG is tabled).
        with group.counters.measure() as cold:
            scheme.encrypt_broadcast(
                b"m" * 32, receivers[:2], server.public_key, LABEL + b":2",
                rng, verify_receiver_keys=False,
            )
        _assert_budget(cold, broadcast_encrypt_cost(2, warm=False))
        for public in receivers:
            TimedReleaseScheme(group).precompute_sender(
                public, server.public_key, time_labels=[LABEL]
            )
        with group.counters.measure() as warm:
            scheme.encrypt_broadcast(
                b"m" * 32, receivers, server.public_key, LABEL, rng,
                verify_receiver_keys=False,
            )
        _assert_budget_with_advisory(
            warm, broadcast_encrypt_cost(len(receivers), warm=True)
        )

    def test_precomp_update_verify(self, fresh):
        group, server, user = fresh
        BLSSignatureScheme(group).precompute_public(server.public_key)
        update = server.publish_update(LABEL)
        measured = _measure(
            group, lambda: update.verify(group, server.public_key)
        )
        _assert_budget_with_advisory(measured, PRECOMP_UPDATE_VERIFY_COST)

    def test_update_verify_second_use(self, fresh):
        """With no precompute call, the third check replays (D, G)."""
        group, server, user = fresh
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
        _assert_budget_with_advisory(measured, PRECOMP_UPDATE_VERIFY_COST)

    def test_precomp_key_check(self, fresh):
        """The third check replays the (G, sG) lines the second recorded."""
        group, server, user = fresh
        for _ in range(2):
            assert user.public.verify_well_formed(group, server.public_key)
        measured = _measure(
            group,
            lambda: user.public.verify_well_formed(group, server.public_key),
        )
        _assert_budget_with_advisory(measured, PRECOMP_KEY_CHECK_COST)
        _assert_budget(measured, RECEIVER_KEY_CHECK_COST)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_archive_verify(self, fresh, n):
        """One batched equation, no lines recorded; a backlog of one is
        the single check."""
        group, server, user = fresh
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
        _assert_budget_with_advisory(measured, archive_verify_cost(n))
        assert not group._pairing_precomp

    def test_archive_verify_fallback(self, fresh):
        """One bad update: the failed batch, then the server key's lines
        recorded and every update checked against them."""
        group, server, user = fresh
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
        _assert_budget_with_advisory(
            measured, archive_verify_cost(n, fallback=True)
        )
        assert len(group._pairing_precomp) == 2

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_archive_batch_beats_the_per_update_pass(self, n):
        """Recording the server key's lines and replaying them once per
        update costs more from a backlog of one on."""
        per_update = OpBudget(line_recordings=2)
        for _ in range(n):
            per_update = per_update + PRECOMP_UPDATE_VERIFY_COST
        assert (
            archive_verify_cost(n).dominant_cost() < per_update.dominant_cost()
        )

    @pytest.mark.parametrize("n", [1, 4])
    def test_batch_decrypt(self, fresh, rng, n):
        group, server, user = fresh
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
        _assert_budget_with_advisory(measured, tre_batch_decrypt_cost(n))

    def test_dominant_cost_discounts_fast_paths(self):
        assert (
            TRE_PRECOMP_ENCRYPT_COST.dominant_cost()
            < TRE_COST.encrypt.dominant_cost()
        )
        # The GT fast path is the deepest collapse: cheaper than even
        # the fixed-base-only precomputed encrypt, and an order of
        # magnitude below the cold path.
        assert (
            TRE_GT_ENCRYPT_COST.dominant_cost()
            < TRE_PRECOMP_ENCRYPT_COST.dominant_cost()
        )
        assert (
            TRE_GT_ENCRYPT_COST.dominant_cost()
            < TRE_COST.encrypt.dominant_cost() / 10
        )
        # Warm broadcast beats N independent warm encrypts (shared U)
        # and is radically below the cold broadcast.
        n = 8
        assert (
            broadcast_encrypt_cost(n, warm=True).dominant_cost()
            < n * TRE_GT_ENCRYPT_COST.dominant_cost()
        )
        assert (
            broadcast_encrypt_cost(n, warm=True).dominant_cost()
            < broadcast_encrypt_cost(n, warm=False).dominant_cost() / 10
        )
        assert (
            PRECOMP_UPDATE_VERIFY_COST.dominant_cost()
            < UPDATE_VERIFY_COST.dominant_cost()
        )
        assert (
            tre_batch_decrypt_cost(8).dominant_cost()
            < 8 * TRE_COST.decrypt.dominant_cost()
        )
        assert (
            PRECOMP_KEY_CHECK_COST.dominant_cost()
            < RECEIVER_KEY_CHECK_COST.dominant_cost()
        )

    def test_dominant_cost_credits_shared_final_exps(self):
        from repro.analysis.costmodel import multiserver_cost, resilient_cost

        fused = multiserver_cost(4).decrypt
        unfused = OpBudget(pairings=4, gt_exps=1)
        assert fused.dominant_cost() < unfused.dominant_cost()
        # A 2-pairing ratio check beats two standalone pairings.
        two_separate = OpBudget(pairings=2)
        assert (
            RECEIVER_KEY_CHECK_COST.dominant_cost()
            < two_separate.dominant_cost()
        )
        assert (
            resilient_cost(8).decrypt.dominant_cost()
            < OpBudget(pairings=8, gt_exps=1).dominant_cost()
        )
