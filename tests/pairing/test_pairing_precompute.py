"""Cached-Miller-line pairings must be byte-identical to direct pairings."""

import pytest

from repro.errors import NotInSubgroupError, ParameterError
from repro.pairing.api import PairingGroup
from repro.pairing.miller import record_line_sequence
from repro.pairing.opcount import PAIRING, PAIRING_PRECOMP


class TestPrecomputedLinesEngine:
    def test_byte_identical_to_direct(self, group, rng):
        for _ in range(5):
            p = group.random_point(rng)
            q = group.random_point(rng)
            lines = group.tate.precompute_lines(p)
            direct = group.tate.pair(p, q)
            fast = group.tate.pair_with_precomp(lines, q)
            assert fast == direct
            assert fast.to_bytes() == direct.to_bytes()

    def test_line_count_scales_with_order(self, group, rng):
        lines = group.tate.precompute_lines(group.random_point(rng))
        assert group.q.bit_length() <= len(lines) <= 3 * group.q.bit_length()
        assert lines.order == group.q

    def test_record_ends_at_infinity_for_subgroup_point(self, group, rng):
        # record_line_sequence itself asserts q·P = O; a non-subgroup
        # order must be rejected rather than silently recorded.
        p = group.random_point(rng)
        with pytest.raises(ParameterError):
            record_line_sequence(p, group.q - 1)

    def test_family_b_rejects_precompute(self, group_b, rng):
        with pytest.raises(ParameterError):
            group_b.tate.precompute_lines(group_b.random_point(rng))

    def test_rejects_infinity_and_foreign_points(self, group, group_b):
        with pytest.raises(ParameterError):
            group.tate.precompute_lines(group.identity())
        with pytest.raises(NotInSubgroupError):
            group.tate.precompute_lines(group_b.generator)

    def test_precomp_pair_with_infinity_is_identity(self, group, rng):
        lines = group.tate.precompute_lines(group.random_point(rng))
        assert group.tate.pair_with_precomp(lines, group.identity()).is_one()


class TestGroupLevelCache:
    def test_pair_probes_both_argument_slots(self, rng):
        fresh = PairingGroup("toy64", family="A")
        p = fresh.random_point(rng)
        q = fresh.random_point(rng)
        direct_pq = fresh.pair(p, q)
        direct_qp = fresh.pair(q, p)
        fresh.precompute_pairing(p)
        fresh.counters.reset()
        assert fresh.pair(p, q) == direct_pq          # fixed first arg
        assert fresh.pair(q, p) == direct_qp          # symmetry swap
        assert fresh.counters.total(PAIRING) == 2
        assert fresh.counters.total(PAIRING_PRECOMP) == 2

    def test_uncached_pair_records_no_advisory_counter(self, rng):
        fresh = PairingGroup("toy64", family="A")
        p = fresh.random_point(rng)
        q = fresh.random_point(rng)
        fresh.counters.reset()
        fresh.pair(p, q)
        assert fresh.counters.total(PAIRING) == 1
        assert fresh.counters.total(PAIRING_PRECOMP) == 0

    def test_precomputation_object_pair_matches_group_pair(self, any_group, rng):
        p = any_group.random_point(rng)
        q = any_group.random_point(rng)
        direct = any_group.tate.pair(p, q)
        precomp = any_group.precompute_pairing(p)
        assert precomp.pair(q).value == direct
        assert precomp.pair(q).to_bytes() == direct.to_bytes()
        any_group.clear_precomputations()

    def test_family_b_precompute_falls_back(self, rng):
        fresh = PairingGroup("toy64", family="B")
        p = fresh.random_point(rng)
        q = fresh.random_point(rng)
        precomp = fresh.precompute_pairing(p)
        assert precomp.lines is None
        direct = fresh.tate.pair(p, q)
        fresh.counters.reset()
        assert precomp.pair(q).value == direct
        assert fresh.counters.total(PAIRING) == 1
        assert fresh.counters.total(PAIRING_PRECOMP) == 0

    def test_precompute_is_cached_and_clearable(self, rng):
        fresh = PairingGroup("toy64", family="A")
        p = fresh.random_point(rng)
        first = fresh.precompute_pairing(p)
        assert fresh.precompute_pairing(p) is first
        fresh.clear_precomputations()
        assert fresh.precompute_pairing(p) is not first

    def test_infinity_argument_handling(self, rng):
        fresh = PairingGroup("toy64", family="A")
        p = fresh.random_point(rng)
        precomp = fresh.precompute_pairing(fresh.identity())
        assert precomp.lines is None
        assert precomp.pair(p).is_identity()
        lines_precomp = fresh.precompute_pairing(p)
        assert lines_precomp.pair(fresh.identity()).is_identity()

    def test_bilinearity_through_cache(self, group, rng):
        a = group.random_scalar(rng)
        b = group.random_scalar(rng)
        p = group.random_point(rng)
        q = group.random_point(rng)
        group.precompute_pairing(p)
        left = group.pair(group.mul(p, a), group.mul(q, b))
        right = group.pair(p, q) ** (a * b % group.q)
        assert left == right
        group.clear_precomputations()
