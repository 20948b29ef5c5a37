"""E13 — threshold (k-of-N) time server costs (extension of §5.3.5).

§5.3.5's all-of-N design multiplies the *receiver's* cost by N and dies
with one crashed server.  The threshold refinement keeps the combined
update byte-identical to a single-server update (so every scheme's
decryption cost is unchanged) and moves the extra work to whoever
combines the shares.  Counted: share verification (2 pairings +
Feldman recomputation) and combination cost versus k.
Crash tolerance is measured too: the k-of-N beacon of
:func:`~repro.sim.scenarios.run_threshold_beacon` releases with N − k
members offline (the delay to the combined update and the receivers
that opened), and one more offline member is refused.
"""

import pytest

from benchmarks.conftest import KEY_MESSAGE, RELEASE, emit
from repro.analysis import format_table
from repro.core.threshold import ThresholdTimeServer
from repro.core.tre import TimedReleaseScheme
from repro.core.keys import UserKeyPair
from repro.crypto.rng import seeded_rng
from repro.errors import SimulationError
from repro.sim.scenarios import run_threshold_beacon

CONFIGS = ((3, 1), (5, 3), (9, 5), (16, 11))  # (members N, threshold k)
BEACON_RECEIVERS = 10


def _setup(group, members, threshold):
    rng = seeded_rng(f"e13-{members}-{threshold}")
    coordinator, member_objs = ThresholdTimeServer.setup(
        group, members=members, threshold=threshold, rng=rng
    )
    return rng, coordinator, member_objs


def test_e13_claim_table(toy_group):
    group = toy_group
    rows = []
    for members, threshold in CONFIGS:
        rng, coordinator, member_objs = _setup(group, members, threshold)
        shares = [m.issue_update_share(RELEASE) for m in member_objs]
        with group.counters.measure() as verify_ops:
            assert coordinator.verify_share(shares[0])
        with group.counters.measure() as combine_ops:
            update = coordinator.combine(shares[:threshold], verify=False)
        assert update.verify(group, coordinator.public_key)
        # The combined update drives ordinary TRE decryption unchanged.
        scheme = TimedReleaseScheme(group)
        user = UserKeyPair.generate(group, coordinator.public_key, rng)
        ct = scheme.encrypt(
            KEY_MESSAGE, user.public, coordinator.public_key, RELEASE, rng,
            verify_receiver_key=False,
        )
        assert scheme.decrypt(ct, user, update) == KEY_MESSAGE
        # The beacon builds its own toy64 group: the counts above stay
        # this group's alone.
        offline = members - threshold
        beacon = run_threshold_beacon(
            members=members, threshold=threshold, offline=offline,
            receivers=BEACON_RECEIVERS,
        )
        assert beacon.receivers_opened == BEACON_RECEIVERS
        with pytest.raises(SimulationError):
            run_threshold_beacon(
                members=members, threshold=threshold, offline=offline + 1
            )
        rows.append((
            f"{threshold}-of-{members}",
            f"{verify_ops.get('pairing', 0)}P "
            f"{verify_ops.get('scalar_mult', 0)}M",
            f"{combine_ops.get('scalar_mult', 0)}M "
            f"{combine_ops.get('point_add', 0)}A",
            offline,
            f"{beacon.time_to_update:.3f}",
            f"{beacon.receivers_opened}/{BEACON_RECEIVERS}",
        ))
    emit(format_table(
        ("config", "verify 1 share", "combine k shares", "offline N-k",
         "update after (s)", "receivers opened"),
        rows,
        title="E13: threshold time server — combined update identical to "
              "single-server; receiver cost unchanged (vs §5.3.5's N-fold)",
    ))
