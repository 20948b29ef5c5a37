"""TimeServerNode: scheduling, catch-up serving, crash/restart recovery."""

import asyncio

import pytest

from repro.core.timeserver import TimeBoundKeyUpdate
from repro.errors import (
    ParameterError,
    ServiceUnavailableError,
    UpdateVerificationError,
)
from repro.service import wire
from repro.service.node import LocalNodeTransport, TimeServerNode
from repro.service.virtualtime import run_virtual


def make_node(group, keypair, **kwargs):
    kwargs.setdefault("epoch_interval", 1.0)
    return TimeServerNode(group, keypair, **kwargs)


async def ask(node, message):
    return wire.decode_message(
        await node.handle_request(wire.encode_message(message))
    )


class TestScheduling:
    def test_start_publishes_the_current_epoch(self, group, node_keypair):
        async def main():
            node = make_node(group, node_keypair)
            await node.start()
            assert node.ready
            response = await ask(node, wire.GetUpdate(node.label_for(0)))
            return TimeBoundKeyUpdate.from_bytes(group, response.update_bytes)

        update = run_virtual(main())
        assert update.verify(group, node_keypair.public)

    def test_scheduler_publishes_each_epoch_boundary(
        self, group, node_keypair
    ):
        async def main():
            node = make_node(group, node_keypair)
            await node.start()
            await asyncio.sleep(3.5)
            return (await ask(node, wire.GetArchive(b""))).update_blobs

        blobs = run_virtual(main())
        labels = [
            TimeBoundKeyUpdate.from_bytes(group, blob).time_label
            for blob in blobs
        ]
        assert labels == [f"epoch:{epoch:012d}".encode() for epoch in range(4)]

    def test_subscribers_receive_every_announce(self, group, node_keypair):
        async def main():
            node = make_node(group, node_keypair)
            queue = node.subscribe()
            await node.start()
            await asyncio.sleep(2.5)
            frames = []
            while not queue.empty():
                frames.append(wire.decode_message(queue.get_nowait()))
            return frames

        frames = run_virtual(main())
        assert len(frames) == 3  # epochs 0, 1, 2
        assert all(isinstance(frame, wire.Announce) for frame in frames)

    def test_future_epoch_refused_past_served_on_demand(
        self, group, node_keypair
    ):
        async def main():
            node = make_node(group, node_keypair)
            await node.start()
            await asyncio.sleep(5.0)
            future = await ask(node, wire.GetUpdate(node.label_for(50)))
            freeform = await ask(node, wire.GetUpdate(b"the-merger-closes"))
            return future, freeform

        future, freeform = run_virtual(main())
        assert isinstance(future, wire.ErrorResponse)
        assert future.code == wire.ERR_UNAVAILABLE
        # The detail is on the wire, so its bytes are part of every
        # transcript that hashes a refused request's response.
        assert future.detail == (
            b"refusing to publish update for epoch 50 at time 5 "
            b"(skew tolerance 0)"
        )
        assert isinstance(freeform, wire.UpdateResponse)

    def test_clock_skew_shifts_the_epoch(self, group, node_keypair):
        async def main():
            node = make_node(group, node_keypair, clock_skew=2.5)
            await node.start()
            return node.current_epoch(), node.health()["archive"]

        epoch, archive = run_virtual(main())
        assert epoch == 2
        assert archive == 3  # epochs 0..2 all backfilled at start


class TestRequestHandling:
    def test_malformed_frame_answered_not_raised(self, group, node_keypair):
        async def main():
            node = make_node(group, node_keypair)
            await node.start()
            raw = await node.handle_request(b"\xff\xfegarbage")
            return wire.decode_message(raw)

        response = run_virtual(main())
        assert isinstance(response, wire.ErrorResponse)
        assert response.code == wire.ERR_BAD_REQUEST

    def test_health_over_the_wire(self, group, node_keypair):
        async def main():
            node = make_node(group, node_keypair)
            await node.start()
            return (await ask(node, wire.Health())).as_dict()

        fields = run_virtual(main())
        assert fields[b"status"] == b"ok"
        assert fields[b"ready"] == b"True"

    def test_archive_since_filters(self, group, node_keypair):
        async def main():
            node = make_node(group, node_keypair)
            await node.start()
            await asyncio.sleep(4.5)
            response = await ask(node, wire.GetArchive(node.label_for(1)))
            return [
                TimeBoundKeyUpdate.from_bytes(group, blob).time_label
                for blob in response.update_blobs
            ]

        labels = run_virtual(main())
        assert labels == [f"epoch:{e:012d}".encode() for e in (2, 3, 4)]


class TestCrashRestart:
    def test_crashed_node_is_unavailable(self, group, node_keypair):
        async def main():
            node = make_node(group, node_keypair)
            await node.start()
            node.crash()
            with pytest.raises(ServiceUnavailableError):
                await node.handle_request(
                    wire.encode_message(wire.Health())
                )
            with pytest.raises(ServiceUnavailableError):
                node.snapshot()
            return node.health()

        health = run_virtual(main())
        assert health["status"] == "down"
        assert health["crashes"] == 1

    def test_restart_from_snapshot_fills_the_outage_gap(
        self, group, node_keypair
    ):
        async def main():
            node = make_node(group, node_keypair)
            await node.start()
            await asyncio.sleep(2.2)  # epochs 0..2 published
            snapshot = node.snapshot()
            node.crash()
            await asyncio.sleep(3.0)  # outage spans epochs 3..5
            restored = await node.restart(snapshot)
            labels = [
                TimeBoundKeyUpdate.from_bytes(group, blob).time_label
                for blob in (await ask(node, wire.GetArchive(b""))).update_blobs
            ]
            return restored, labels

        restored, labels = run_virtual(main())
        assert restored == 3
        assert labels == [f"epoch:{e:012d}".encode() for e in range(6)]

    def test_restart_without_snapshot_republishes_from_zero(
        self, group, node_keypair
    ):
        async def main():
            node = make_node(group, node_keypair)
            await node.start()
            await asyncio.sleep(2.2)
            node.crash()
            await asyncio.sleep(1.0)
            restored = await node.restart(None)
            return restored, node.health()["archive"]

        restored, archive = run_virtual(main())
        assert restored == 0
        assert archive == 4  # epochs 0..3 all re-signed

    def test_corrupt_snapshot_rejected(self, group, node_keypair):
        from repro.errors import ReproError

        async def main():
            node = make_node(group, node_keypair)
            await node.start()
            await asyncio.sleep(1.2)
            snapshot = bytearray(node.snapshot())
            snapshot[-1] ^= 0x01  # flip a point byte
            node.crash()
            with pytest.raises(ReproError):
                await node.restart(bytes(snapshot))

        run_virtual(main())

    def test_foreign_snapshot_rejected(self, group, node_keypair, rng):
        """A snapshot signed by a different server must not restore."""
        from repro.core.keys import ServerKeyPair

        other = ServerKeyPair.generate(group, rng)

        async def main():
            imposter = make_node(group, other)
            await imposter.start()
            foreign = imposter.snapshot()
            node = make_node(group, node_keypair)
            await node.start()
            node.crash()
            with pytest.raises(UpdateVerificationError):
                await node.restart(foreign)

        run_virtual(main())

    def test_double_start_rejected(self, group, node_keypair):
        async def main():
            node = make_node(group, node_keypair)
            await node.start()
            with pytest.raises(ParameterError):
                await node.start()

        run_virtual(main())

    def test_graceful_stop_keeps_archive(self, group, node_keypair):
        async def main():
            node = make_node(group, node_keypair)
            await node.start()
            await asyncio.sleep(2.2)
            node.stop()
            await asyncio.sleep(2.0)
            await node.start()  # no snapshot needed: state survived
            return node.health()["archive"], node.crashes

        archive, crashes = run_virtual(main())
        assert archive == 5  # epochs 0..4, the stopped stretch backfilled
        assert crashes == 0


class TestLocalTransport:
    def test_latency_model_consumes_virtual_time(self, group, node_keypair):
        from repro.crypto.rng import seeded_rng
        from tests.sim.harness import FixedLatency

        async def main():
            node = make_node(group, node_keypair)
            await node.start()
            transport = LocalNodeTransport(
                node, latency=FixedLatency(0.2), rng=seeded_rng(1)
            )
            loop = asyncio.get_event_loop()
            start = loop.time()
            await transport.request(wire.encode_message(wire.Health()))
            return loop.time() - start

        # one leg out + one leg back
        assert run_virtual(main()) == pytest.approx(0.4)

    def test_latency_requires_rng(self, group, node_keypair):
        from tests.sim.harness import FixedLatency

        node = TimeServerNode(group, node_keypair)
        with pytest.raises(ParameterError):
            LocalNodeTransport(node, latency=FixedLatency(0.1))
