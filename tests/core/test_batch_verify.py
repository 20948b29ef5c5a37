"""Batch verification of archived updates.

``verify_archive`` checks the pending backlog as one equation,
``ê(D, Σ r_i·P′_i) / ê(G, Σ r_i·I_i) == 1``, and falls back to one check
per update when it fails; either way it returns exactly the labels a
per-update check rejects.  Each backlog here is decoded afresh, because
an update remembers the key it was accepted under.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bls import BLSSignatureScheme
from repro.core.keys import ServerKeyPair
from repro.core.timeserver import (
    PassiveTimeServer,
    TimeBoundKeyUpdate,
    _batch_weights,
    verify_archive,
)
from repro.math.backend import available_backends
from repro.pairing import hashing
from repro.pairing.api import PairingGroup
from repro.pairing.supersingular import FAMILY_A


def _fresh(group, updates):
    """The same updates as a receiver decodes them: no verdict recorded."""
    return [
        TimeBoundKeyUpdate.from_bytes(group, update.to_bytes(group))
        for update in updates
    ]


def _oracle(group, public, updates):
    """The labels a per-update check rejects."""
    return [u.time_label for u in _fresh(group, updates)
            if not u.verify(group, public)]


@pytest.fixture(scope="module")
def backlog(group, session_rng):
    server = PassiveTimeServer(group, rng=session_rng)
    updates = [server.publish_update(f"batch-{i}".encode()) for i in range(12)]
    return server, updates


class TestBatchVerifyUpdates:
    def test_genuine_backlog_accepted(self, group, backlog):
        server, updates = backlog
        fresh = _fresh(group, updates)
        assert verify_archive(group, server.public_key, fresh) == []
        # Every accept is recorded: asking again costs nothing.
        with group.counters.measure() as ops:
            assert all(u.verify(group, server.public_key) for u in fresh)
        assert ops == {}

    def test_single_update_batch(self, group, backlog):
        server, updates = backlog
        with group.counters.measure() as ops:
            assert verify_archive(
                group, server.public_key, _fresh(group, updates[:1])
            ) == []
        # A backlog of one is the single check: no weighted sums.
        assert "multi_scalar_mult" not in ops
        assert ops["multi_pair"] == 1

    def test_empty_batch_rejected(self, group, backlog):
        server, _ = backlog
        assert verify_archive(group, server.public_key, []) == []

    def test_one_forged_update_poisons_batch(self, group, backlog, rng):
        server, updates = backlog
        forged = _fresh(group, updates)
        forged[7] = TimeBoundKeyUpdate(b"batch-7", group.random_point(rng))
        assert verify_archive(group, server.public_key, forged) == [b"batch-7"]
        # The good entries were still recorded by the per-update pass.
        assert forged[6].verify(group, server.public_key)

    def test_swapped_labels_rejected(self, group, backlog):
        server, updates = backlog
        swapped = _fresh(group, updates)
        swapped[0] = TimeBoundKeyUpdate(updates[1].time_label, updates[0].point)
        swapped[1] = TimeBoundKeyUpdate(updates[0].time_label, updates[1].point)
        assert verify_archive(group, server.public_key, swapped) == [
            updates[1].time_label, updates[0].time_label,
        ]

    def test_other_servers_update_rejected(self, group, backlog, rng):
        server, updates = backlog
        other = PassiveTimeServer(group, rng=rng)
        mixed = _fresh(group, updates[:-1]) + [other.publish_update(b"batch-11")]
        assert verify_archive(group, server.public_key, mixed) == [b"batch-11"]

    def test_infinity_point_rejected(self, group, backlog):
        server, updates = backlog
        bad = _fresh(group, updates[:-1]) + [
            TimeBoundKeyUpdate(b"batch-11", group.identity())
        ]
        assert verify_archive(group, server.public_key, bad) == [b"batch-11"]

    def test_cost_is_two_pairings(self, group, backlog):
        server, updates = backlog
        with group.counters.measure() as ops:
            assert verify_archive(
                group, server.public_key, _fresh(group, updates)
            ) == []
        assert ops.get("pairing", 0) == 2
        assert ops["multi_pair"] == ops["final_exp"] == 1
        # versus 2 per update when verified one by one:
        with group.counters.measure() as ops_individual:
            for update in _fresh(group, updates):
                assert update.verify(group, server.public_key)
        assert ops_individual.get("pairing", 0) == 2 * len(updates)


class TestForgedUpdateInLargeArchive:
    """Adversarial: one forgery hiding in a 32-update archive.

    The batched equation must reject it at every position tried, and
    the per-update pass behind it must name exactly that label.
    """

    @pytest.fixture(scope="class")
    def archive32(self, group, session_rng):
        server = PassiveTimeServer(group, rng=session_rng)
        updates = [
            server.publish_update(f"archive32-{i:02d}".encode())
            for i in range(32)
        ]
        return server, updates

    @pytest.mark.parametrize("position", [0, 13, 31])
    def test_batch_verify_catches_single_forgery(
        self, group, archive32, rng, position
    ):
        server, updates = archive32
        forged = _fresh(group, updates)
        forged[position] = TimeBoundKeyUpdate(
            updates[position].time_label, group.random_point(rng)
        )
        assert verify_archive(group, server.public_key, _fresh(group, updates)) == []
        with group.counters.measure() as ops:
            verify_archive(group, server.public_key, forged)
        # The batch failed, so every update was checked on its own on
        # the map point already hashed, and only the forgery ran the
        # full check, hashing its label once more.
        assert ops["multi_pair"] == 1 + len(updates) + 1
        assert ops["hash_to_curve"] == len(updates) + 1

    @pytest.mark.parametrize("position", [0, 13, 31])
    def test_ratio_check_pinpoints_single_forgery(
        self, group, archive32, rng, position
    ):
        server, updates = archive32
        forged = _fresh(group, updates)
        forged[position] = TimeBoundKeyUpdate(
            updates[position].time_label, group.random_point(rng)
        )
        expected = [updates[position].time_label]
        assert verify_archive(group, server.public_key, forged) == expected

    def test_pair_ratio_is_one_on_each_update(self, group, archive32, rng):
        """The underlying primitive: per-update ê(sG,H1(T)) / ê(G,I_T)."""
        server, updates = archive32
        public = server.public_key
        bls = BLSSignatureScheme(group)
        forged_point = group.random_point(rng)
        for update in updates[:4]:
            assert group.pair_ratio_is_one(
                ((public.s_generator, bls.hash_message(update.time_label)),),
                ((public.generator, update.point),),
            )
            assert not group.pair_ratio_is_one(
                ((public.s_generator, bls.hash_message(update.time_label)),),
                ((public.generator, forged_point),),
            )

    def test_infinity_forgery_rejected(self, group, archive32):
        server, updates = archive32
        forged = _fresh(group, updates)
        forged[7] = TimeBoundKeyUpdate(updates[7].time_label, group.identity())
        assert verify_archive(group, server.public_key, forged) == [
            updates[7].time_label
        ]


class TestBatchAdversaries:
    def test_cancelling_pair_is_caught(self, group, backlog, rng):
        """``I_1 + X`` and ``I_2 − X`` sum to ``I_1 + I_2``: with equal
        weights the batch would accept both forgeries."""
        server, updates = backlog
        x = group.random_point(rng)
        cooked = _fresh(group, updates[:4])
        cooked[1] = TimeBoundKeyUpdate(updates[1].time_label, updates[1].point + x)
        cooked[2] = TimeBoundKeyUpdate(updates[2].time_label, updates[2].point - x)
        assert verify_archive(group, server.public_key, cooked) == [
            updates[1].time_label, updates[2].time_label,
        ]

    @pytest.mark.parametrize("family", ["A", "B"])
    def test_degenerate_map_point_accepted_through_fallback(
        self, family, monkeypatch
    ):
        """A label whose counter-0 map point has ``c·P′_j = O`` (forced
        here to a point of order 2) makes the batch fail; the per-update
        pass behind it accepts the update exactly."""
        group = PairingGroup("toy64", family=family)
        server = PassiveTimeServer(group, rng=random.Random(5))
        fp = group.ssc.fp
        small = (group.ssc.curve.point(fp(0), fp(0)) if family == FAMILY_A
                 else group.ssc.curve.point(fp(-1), fp(0)))
        forced = b"forced-label"
        real = hashing.map_to_curve

        def map_to_curve(ssc, data, tag="repro:H1", counter=0):
            if counter == 0 and data == forced:
                return small
            return real(ssc, data, tag, counter)

        monkeypatch.setattr(hashing, "map_to_curve", map_to_curve)
        labels = [b"L0", b"L1", forced, b"L3"]
        updates = [server.publish_update(label) for label in labels]
        assert group._map_to_curve(forced) == small
        with group.counters.measure() as ops:
            assert verify_archive(
                group, server.public_key, _fresh(group, updates)
            ) == []
        # The batch, one check per update on its map point, and the
        # forced label's full check: its map point again, then the
        # cleared H1(T) itself.
        assert ops["multi_pair"] == 1 + len(updates) + 2
        assert ops["hash_to_group"] == 1
        forged = _fresh(group, updates)
        forged[2] = TimeBoundKeyUpdate(forced, updates[2].point + updates[0].point)
        assert verify_archive(group, server.public_key, forged) == [forced]

    def test_one_flipped_byte_changes_every_weight(self, group, backlog):
        server, updates = backlog
        key = server.public_key.to_bytes(group)
        entries = [u.to_bytes(group) for u in updates[:5]]
        weights = _batch_weights(key, entries)
        assert weights[0] == 1
        assert all(w % 2 == 1 and w.bit_length() <= 128 for w in weights)
        assert len(set(weights)) == len(weights)
        for index, entry in enumerate(entries):
            for position in (0, len(entry) // 2, len(entry) - 1):
                flipped = bytearray(entry)
                flipped[position] ^= 0x01
                changed = list(entries)
                changed[index] = bytes(flipped)
                other = _batch_weights(key, changed)
                assert other[0] == 1
                assert all(a != b for a, b in zip(weights[1:], other[1:]))
        flipped_key = bytes([key[0] ^ 0x01]) + key[1:]
        other = _batch_weights(flipped_key, entries)
        assert all(a != b for a, b in zip(weights[1:], other[1:]))


ORACLE_CASES = [
    (params, family, backend)
    for params, family in (("toy64", "A"), ("toy64", "B"), ("ss512", "A"))
    for backend in available_backends()
]


@pytest.fixture(scope="module", params=ORACLE_CASES, ids=lambda c: "-".join(c))
def world(request):
    """A group, its server, another server and 8 labels signed by both."""
    params, family, backend = request.param
    group = PairingGroup(params, family=family, backend=backend)
    rng = random.Random(31)
    server = PassiveTimeServer(group, rng=rng)
    other = PassiveTimeServer(group, rng=rng)
    labels = [f"oracle-{i}".encode() for i in range(8)]
    return (
        group,
        server.public_key,
        [server.publish_update(label) for label in labels],
        [other.publish_update(label) for label in labels],
    )


@settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    size=st.integers(min_value=1, max_value=8),
    bad=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.sampled_from(["random", "swapped", "other_server"]),
        ),
        max_size=3,
    ),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_verify_archive_matches_per_update_oracle(world, size, bad, seed):
    """Backlogs of 1–8 with 0–3 bad entries, on every backend."""
    group, public, genuine, foreign = world
    backlog = list(genuine[:size])
    rng = random.Random(seed)
    for index, kind in bad:
        index %= size
        label = backlog[index].time_label
        if kind == "random":
            backlog[index] = TimeBoundKeyUpdate(label, group.random_point(rng))
        elif kind == "swapped":
            neighbour = genuine[(index + 1) % len(genuine)].time_label
            backlog[index] = TimeBoundKeyUpdate(neighbour, backlog[index].point)
        else:
            backlog[index] = foreign[index]
    expected = _oracle(group, public, backlog)
    assert verify_archive(group, public, _fresh(group, backlog)) == expected
