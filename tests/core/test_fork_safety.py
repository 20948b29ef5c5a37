"""Runtime fork-safety of the at-fork hooks.

The static analyzer (RP301/RP302/RP304) proves the *absence* of
fork-hazard patterns; these tests check the positive runtime claims
for any caller that forks: children never replay each other's
randomness, the RNG guard fires in children and not in the parent, and
a forked child starts with empty ``PairingGroup`` caches.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.crypto.rng import fork_generation, process_rng
from repro.pairing.api import PairingGroup

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method not available on this platform",
)


def _fork_pool(processes: int, **kwargs):
    return multiprocessing.get_context("fork").Pool(processes, **kwargs)


def _run(pool, fn, items):
    return pool.map_async(fn, items, chunksize=1).get(timeout=60)


def _nonce(_):
    """(pid, fork generation, fresh nonce) for one item."""
    time.sleep(0.02)  # hold the worker so the other one takes items too
    return os.getpid(), fork_generation(), process_rng().getrandbits(64)


class TestForkedRandomness:
    def test_workers_draw_distinct_nonces(self):
        with _fork_pool(2) as pool:
            records = _run(pool, _nonce, range(8))
        nonces = {nonce for _, _, nonce in records}
        assert len(nonces) == len(records)  # no replayed stream anywhere
        parent = os.getpid()
        assert all(pid != parent for pid, _, _ in records)
        worker_pids = {pid for pid, _, _ in records}
        assert len(worker_pids) >= 2  # both children drew

    def test_at_fork_guard_fires_in_children_not_parent(self):
        process_rng()  # populate the parent cache before forking
        with _fork_pool(2) as pool:
            records = _run(pool, _nonce, range(4))
        assert all(generation >= 1 for _, generation, _ in records)
        assert fork_generation() == 0  # the hook never runs in the parent


_CHILD_GROUPS: list[PairingGroup] = []


def _adopt_groups(groups: list[PairingGroup]) -> None:
    # Pool initializer: under fork the argument is the parent's objects,
    # inherited rather than pickled.
    _CHILD_GROUPS.extend(groups)


def _cache_sizes(_):
    return [
        (len(group._fixed_base), len(group._pairing_precomp))
        for group in _CHILD_GROUPS
    ]


class TestForkedGroupCaches:
    def test_child_starts_with_empty_caches(self, rng):
        # Groups over the same parameters compare equal; the hook must
        # still clear every one of them.
        groups = [PairingGroup("toy64"), PairingGroup("toy64")]
        for group in groups:
            group.precompute(group.generator)
            group.precompute_pairing(group.random_point(rng))
            assert group._fixed_base and group._pairing_precomp

        with _fork_pool(
            1, initializer=_adopt_groups, initargs=(groups,)
        ) as pool:
            assert _run(pool, _cache_sizes, [None]) == [[(0, 0), (0, 0)]]

        # The hook clears only the child's copies.
        assert all(g._fixed_base and g._pairing_precomp for g in groups)
