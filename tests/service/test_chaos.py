"""The chaos property suite (``pytest -m faults``).

One seed drives *everything* — fault schedules, backoff jitter, crash
timing, encryption randomness — so each scenario is byte-reproducible:
the same seed replays the identical interleaving, the identical fault
decisions, the identical final counters.

The two properties under test:

* **Liveness** — whatever the seeded fault schedule does (drops,
  delays, duplicates, reordering, corruption, node crashes with or
  without snapshots), every parked ciphertext eventually decrypts once
  its release time passes.
* **Safety** — the client never accepts an update that fails the
  paper's check ``ê(sG, H1(T)) == ê(G, I_T)``: everything in its cache
  re-verifies, and corrupted traffic shows up only in the ``rejected``
  counter.

Seeds come from ``REPRO_CHAOS_SEEDS`` (comma-separated ints) when set,
so CI can shard or widen the sweep without editing the test.
"""

import asyncio
import os

import pytest

from repro.crypto.rng import seeded_rng
from repro.service.client import ResilientTimeClient
from repro.service.faults import FaultPlan, FaultyChannel
from repro.service.faults import FaultyTransport
from repro.service.node import LocalNodeTransport, TimeServerNode
from repro.service.virtualtime import run_virtual
from tests.service.harness import NodeChaos

pytestmark = pytest.mark.faults

DEFAULT_SEEDS = (101, 202, 303)


def chaos_seeds():
    env = os.environ.get("REPRO_CHAOS_SEEDS")
    if env:
        return tuple(int(part) for part in env.split(","))
    return DEFAULT_SEEDS


def run_scenario(
    group, keypair, user, scheme, seed, lose_snapshot=False
):
    """One full chaos run; returns a summary dict for replay comparison."""
    master = seeded_rng(seed)

    def sub():
        return seeded_rng(master.getrandbits(64))

    rates = dict(
        drop=0.35, delay=0.3, duplicate=0.15, corrupt=0.25, delay_scale=0.4
    )
    enc_rng = sub()
    epoch_rng = sub()

    async def scenario():
        loop = asyncio.get_event_loop()
        primary = TimeServerNode(group, keypair, name="primary")
        mirror = TimeServerNode(group, keypair, name="mirror")
        await primary.start()
        await mirror.start()

        client = ResilientTimeClient(
            group,
            keypair.public,
            [
                FaultyTransport(LocalNodeTransport(primary), FaultPlan(sub(), **rates)),
                FaultyTransport(LocalNodeTransport(mirror), FaultPlan(sub(), **rates)),
            ],
            sub(),
            request_timeout=0.5,
        )
        channel = FaultyChannel(
            primary.subscribe(),
            FaultPlan(sub(), drop=0.3, corrupt=0.3, duplicate=0.2, reorder=0.2),
        )
        loop.create_task(channel.pump())
        loop.create_task(client.listen(channel.queue))

        messages = [f"message-{index}".encode() for index in range(4)]
        for message in messages:
            epoch = epoch_rng.randrange(1, 9)
            ciphertext = scheme.encrypt(
                message,
                user.public,
                keypair.public,
                primary.label_for(epoch),
                enc_rng,
            )
            client.park(scheme, ciphertext, user)

        chaos = NodeChaos(
            primary,
            sub(),
            uptime=(1.5, 4.0),
            outage=(0.5, 2.0),
            lose_snapshot=lose_snapshot,
        )
        chaos_task = loop.create_task(chaos.run(2))

        # Liveness: everything decrypts; the wait_for turns a livelock
        # into a test failure instead of an infinite (virtual) spin.
        plaintexts = await asyncio.wait_for(client.drain(), timeout=5000.0)
        await chaos_task

        # Safety: the cache holds only updates passing the pairing check.
        for update in client.updates.values():
            assert update.verify(group, keypair.public)

        return {
            "plaintexts": plaintexts,
            "stats": client.stats(),
            "crashes": primary.crashes,
            "finished_at": loop.time(),
        }

    result = run_virtual(scenario())
    result["expected"] = [f"message-{index}".encode() for index in range(4)]
    return result


@pytest.mark.parametrize("seed", chaos_seeds())
def test_chaos_eventual_decryption(
    group, node_keypair, node_user, scheme, seed
):
    result = run_scenario(group, node_keypair, node_user, scheme, seed)
    assert result["plaintexts"] == result["expected"]
    assert result["crashes"] == 2


@pytest.mark.parametrize("seed", chaos_seeds()[:1])
def test_chaos_is_byte_reproducible(
    group, node_keypair, node_user, scheme, seed
):
    """Same seed → identical fault schedule, counters and timings."""
    first = run_scenario(group, node_keypair, node_user, scheme, seed)
    second = run_scenario(group, node_keypair, node_user, scheme, seed)
    assert first == second


def test_chaos_survives_snapshot_loss(
    group, node_keypair, node_user, scheme
):
    """Even recovering from nothing (full republish) converges."""
    result = run_scenario(
        group, node_keypair, node_user, scheme, DEFAULT_SEEDS[0],
        lose_snapshot=True,
    )
    assert result["plaintexts"] == result["expected"]
