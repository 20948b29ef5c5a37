"""Tests for the missing-update-resilient hierarchical TRE (§6 future work)."""

import dataclasses

import pytest

from repro.core.resilient import (
    HierarchicalTimeTree,
    NodeKey,
    ResilientCiphertext,
    ResilientTRE,
    ResilientTimeServer,
    ResilientUpdate,
    epoch_path,
    left_cover,
)
from repro.encoding import pack_chunks
from repro.errors import (
    DecodingError,
    ParameterError,
    UpdateNotAvailableError,
    UpdateVerificationError,
)

DEPTH = 6


@pytest.fixture(scope="module")
def resilient_world(group, session_rng):
    server = ResilientTimeServer(group, DEPTH, session_rng)
    scheme = ResilientTRE(group, server.tree, server.public_key)
    user = scheme.generate_user_keypair(server.public_key, session_rng)
    return server, scheme, user


class TestTreeGeometry:
    def test_epoch_path(self):
        assert epoch_path(0, 3) == (0, 0, 0)
        assert epoch_path(5, 3) == (1, 0, 1)
        assert epoch_path(7, 3) == (1, 1, 1)

    def test_epoch_out_of_range(self):
        with pytest.raises(ParameterError):
            epoch_path(8, 3)
        with pytest.raises(ParameterError):
            epoch_path(-1, 3)

    @pytest.mark.parametrize("epoch", range(8))
    def test_cover_is_exact(self, epoch):
        """The cover contains every leaf <= epoch and nothing later."""
        cover = left_cover(epoch, 3)
        covered = set()
        for node in cover:
            free = 3 - len(node)
            base = 0
            for bit in node:
                base = (base << 1) | bit
            base <<= free
            covered.update(range(base, base + (1 << free)))
        assert covered == set(range(epoch + 1))

    def test_cover_size_bound(self):
        for epoch in range(64):
            assert len(left_cover(epoch, 6)) <= 7  # <= depth + 1

    def test_cover_nodes_disjoint(self):
        for epoch in (13, 29, 63):
            cover = left_cover(epoch, 6)
            for i, a in enumerate(cover):
                for b in cover[i + 1:]:
                    shorter, longer = sorted((a, b), key=len)
                    assert longer[: len(shorter)] != shorter

    def test_depth_validation(self, group):
        with pytest.raises(ParameterError):
            HierarchicalTimeTree(group, 0)

    def test_node_points_distinct_per_prefix(self, group):
        tree = HierarchicalTimeTree(group, 4)
        assert tree.node_point((0,)) != tree.node_point((1,))
        assert tree.node_point((0, 1)) != tree.node_point((1,))

    def test_namespace_separation(self, group):
        t1 = HierarchicalTimeTree(group, 4, namespace=b"a")
        t2 = HierarchicalTimeTree(group, 4, namespace=b"b")
        assert t1.node_point((0,)) != t2.node_point((0,))


class TestResilience:
    def test_later_update_opens_earlier_ciphertext(self, resilient_world, rng):
        """THE property: one update at t=29 opens a message released at
        t=13 even though updates 13..28 were all missed."""
        server, scheme, user = resilient_world
        ct = scheme.encrypt(b"missed 16 broadcasts", user.public, 13, rng)
        update = server.publish_update(29)
        assert scheme.decrypt(ct, user, update, rng) == b"missed 16 broadcasts"

    def test_single_update_opens_many_epochs(self, resilient_world, rng):
        server, scheme, user = resilient_world
        ciphertexts = {
            epoch: scheme.encrypt(f"m{epoch}".encode(), user.public, epoch, rng)
            for epoch in (0, 7, 20, 33, 40)
        }
        update = server.publish_update(40)
        for epoch, ct in ciphertexts.items():
            assert scheme.decrypt(ct, user, update, rng) == f"m{epoch}".encode()

    def test_exact_epoch_update(self, resilient_world, rng):
        server, scheme, user = resilient_world
        ct = scheme.encrypt(b"on time", user.public, 22, rng)
        update = server.publish_update(22)
        assert scheme.decrypt(ct, user, update, rng) == b"on time"

    @pytest.mark.parametrize("epoch", [0, 63])
    def test_boundary_epochs(self, resilient_world, rng, epoch):
        server, scheme, user = resilient_world
        ct = scheme.encrypt(b"edge", user.public, epoch, rng)
        update = server.publish_update(epoch)
        assert scheme.decrypt(ct, user, update, rng) == b"edge"


class TestTimeLock:
    def test_earlier_update_cannot_open(self, resilient_world, rng):
        server, scheme, user = resilient_world
        ct = scheme.encrypt(b"future", user.public, 30, rng)
        for past in (0, 15, 29):
            update = server.publish_update(past)
            with pytest.raises(UpdateNotAvailableError):
                scheme.decrypt(ct, user, update, rng)

    def test_wrong_receiver_gets_garbage(self, resilient_world, rng):
        server, scheme, user = resilient_world
        other = scheme.generate_user_keypair(server.public_key, rng)
        ct = scheme.encrypt(b"for user", user.public, 10, rng)
        update = server.publish_update(10)
        assert scheme.decrypt(ct, other, update, rng) != b"for user"

    def test_sibling_subtree_key_useless(self, resilient_world, rng):
        """A node key for the 0-subtree cannot be coerced onto a leaf in
        the 1-subtree."""
        server, scheme, user = resilient_world
        update = server.publish_update(31)  # covers leaves 0..31 = subtree (0,)
        future_epoch = 40  # path starts with bit 1
        ct = scheme.encrypt(b"future", user.public, future_epoch, rng)
        with pytest.raises(UpdateNotAvailableError):
            scheme.decrypt(ct, user, update, rng)
        # Even handcrafting a "leaf key" from the wrong subtree fails the
        # path guard.
        covering = update.node_keys[0]
        forged = NodeKey(
            epoch_path(future_epoch, DEPTH), covering.s_point, covering.q_points
        )
        with pytest.raises(UpdateVerificationError):
            scheme.decrypt(ct, user, forged)

    def test_derivation_requires_cover(self, resilient_world, rng):
        server, scheme, _ = resilient_world
        update = server.publish_update(5)
        key = update.node_keys[0]
        with pytest.raises(UpdateNotAvailableError):
            scheme.derive_leaf_key(key, 63, rng)


class TestDepthBinding:
    """A ciphertext or an update for another tree depth is refused, not
    opened against this tree's paths."""

    @pytest.mark.parametrize("depth", [DEPTH - 1, DEPTH + 1])
    def test_relabelled_ciphertext_depth_rejected(
        self, resilient_world, rng, depth
    ):
        server, scheme, user = resilient_world
        ct = scheme.encrypt(b"depth-bound", user.public, 9, rng)
        update = server.publish_update(9)
        leaf = scheme.derive_leaf_key(scheme.find_covering_key(update, 9), 9, rng)
        relabelled = dataclasses.replace(ct, depth=depth)
        for key in (update, leaf):
            with pytest.raises(UpdateVerificationError):
                scheme.decrypt(relabelled, user, key, rng)
        assert scheme.decrypt(ct, user, update, rng) == b"depth-bound"

    @pytest.mark.parametrize("depth", [DEPTH - 1, DEPTH + 1])
    def test_relabelled_update_depth_rejected(self, resilient_world, rng, depth):
        server, scheme, user = resilient_world
        ct = scheme.encrypt(b"depth-bound", user.public, 9, rng)
        update = dataclasses.replace(server.publish_update(9), depth=depth)
        with pytest.raises(UpdateVerificationError):
            scheme.find_covering_key(update, 9)
        with pytest.raises(UpdateVerificationError):
            scheme.decrypt(ct, user, update, rng)


class TestNodeKeys:
    def test_published_keys_verify(self, resilient_world):
        server, _, _ = resilient_world
        update = server.publish_update(29)
        assert all(server.verify_node_key(k) for k in update.node_keys)

    def test_forged_key_rejected(self, group, resilient_world, rng):
        server, _, _ = resilient_world
        genuine = server.publish_update(29).node_keys[0]
        forged = NodeKey(genuine.path, group.random_point(rng), genuine.q_points)
        assert not server.verify_node_key(forged)

    def test_derived_leaf_key_verifies(self, resilient_world, rng):
        server, scheme, _ = resilient_world
        update = server.publish_update(29)
        covering = scheme.find_covering_key(update, 13)
        leaf = scheme.derive_leaf_key(covering, 13, rng)
        assert server.verify_node_key(leaf)

    def test_rederivation_randomized_but_equivalent(self, resilient_world, rng):
        server, scheme, user = resilient_world
        update = server.publish_update(29)
        covering = scheme.find_covering_key(update, 13)
        k1 = scheme.derive_leaf_key(covering, 13, rng)
        k2 = scheme.derive_leaf_key(covering, 13, rng)
        assert k1 != k2  # fresh randomness
        ct = scheme.encrypt(b"either works", user.public, 13, rng)
        assert scheme.decrypt(ct, user, k1) == b"either works"
        assert scheme.decrypt(ct, user, k2) == b"either works"


class TestUpdateSize:
    def test_point_count_bounded(self, resilient_world):
        server, _, _ = resilient_world
        for epoch in range(0, 64, 7):
            update = server.publish_update(epoch)
            # Worst case: (depth+1) node keys of up to depth points each.
            assert update.point_count() <= (DEPTH + 1) * DEPTH
            assert update.size_bytes(server.group) > 0

    def test_all_ones_epoch_is_worst_case(self, resilient_world):
        server, _, _ = resilient_world
        worst = server.publish_update(63).point_count()
        best = server.publish_update(0).point_count()
        assert worst > best


class TestWireForm:
    def test_size_bytes_is_the_wire_length(self, resilient_world):
        server, _, _ = resilient_world
        for epoch in (0, 21, 63):
            update = server.publish_update(epoch)
            assert update.size_bytes(server.group) == len(
                update.to_bytes(server.group)
            )

    def test_node_key_without_three_parts_is_a_decoding_error(
        self, group, resilient_world
    ):
        server, _, _ = resilient_world
        key = server.publish_update(5).node_keys[0]
        two_parts = pack_chunks(bytes(key.path), group.point_to_bytes(key.s_point))
        blob = pack_chunks(
            (5).to_bytes(8, "big"), DEPTH.to_bytes(2, "big"), pack_chunks(two_parts)
        )
        with pytest.raises(DecodingError):
            ResilientUpdate.from_bytes(group, blob)

    def test_ciphertext_roundtrip(self, group, resilient_world, rng):
        server, scheme, user = resilient_world
        ct = scheme.encrypt(b"stored until epoch 9", user.public, 9, rng)
        restored = ResilientCiphertext.from_bytes(group, ct.to_bytes(group))
        assert restored == ct
        update = server.publish_update(30)
        assert scheme.decrypt(restored, user, update, rng) == b"stored until epoch 9"
