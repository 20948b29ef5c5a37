"""ResilientTimeClient: timeouts, retries, failover, the verification gate."""

import asyncio

import pytest

from repro.crypto.rng import seeded_rng
from repro.errors import (
    ParameterError,
    PermanentServiceError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)
from repro.service import wire
from repro.service.client import ResilientTimeClient
from repro.service.node import LocalNodeTransport, TimeServerNode
from repro.service.retry import OPEN, Deadline, ExponentialBackoff
from repro.service.virtualtime import run_virtual


class FlakyTransport:
    """Fails the first ``failures`` requests, then delegates."""

    def __init__(self, inner, failures, exc=ServiceUnavailableError):
        self.inner = inner
        self.failures = failures
        self.exc = exc
        self.calls = 0

    async def request(self, payload):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc("injected failure")
        return await self.inner.request(payload)


class DeadTransport:
    async def request(self, payload):
        raise ServiceUnavailableError("dead source")


class StallTransport:
    """Never answers — the per-request timeout must cut it off."""

    async def request(self, payload):
        await asyncio.sleep(10**6)
        raise AssertionError("unreachable")


class TamperTransport:
    """Corrupts the update bytes inside otherwise well-formed responses."""

    def __init__(self, inner, tampers):
        self.inner = inner
        self.tampers = tampers

    async def request(self, payload):
        raw = await self.inner.request(payload)
        if self.tampers <= 0:
            return raw
        self.tampers -= 1
        message = wire.decode_message(raw)
        if isinstance(message, wire.UpdateResponse):
            blob = bytearray(message.update_bytes)
            blob[-1] ^= 0x40
            return wire.encode_message(wire.UpdateResponse(bytes(blob)))
        if isinstance(message, wire.ArchiveResponse):
            blobs = list(message.update_blobs)
            blob = bytearray(blobs[0])
            blob[-1] ^= 0x40
            blobs[0] = bytes(blob)
            return wire.encode_message(wire.ArchiveResponse(tuple(blobs)))
        return raw


def make_client(group, keypair, transports, **kwargs):
    kwargs.setdefault("request_timeout", 0.5)
    return ResilientTimeClient(
        group, keypair.public, transports, seeded_rng(0xC11E07), **kwargs
    )


async def started_node(group, keypair, **kwargs):
    kwargs.setdefault("epoch_interval", 1.0)
    node = TimeServerNode(group, keypair, **kwargs)
    await node.start()
    return node


class TestHappyPath:
    def test_fetch_caches_and_reuses(self, group, node_keypair):
        async def main():
            node = await started_node(group, node_keypair)
            client = make_client(
                group, node_keypair, [LocalNodeTransport(node)]
            )
            label = node.label_for(0)
            first = await client.get_update(label)
            served = node.requests_served
            second = await client.get_update(label)
            return first, second, served, node.requests_served

        first, second, served, served_after = run_virtual(main())
        assert first == second
        assert served == served_after  # cache hit, no second request

    def test_requires_a_source(self, group, node_keypair):
        with pytest.raises(ParameterError):
            make_client(group, node_keypair, [])


class TestRetryAndTimeout:
    def test_transient_failures_retried_until_success(
        self, group, node_keypair
    ):
        async def main():
            node = await started_node(group, node_keypair)
            flaky = FlakyTransport(LocalNodeTransport(node), failures=4)
            client = make_client(group, node_keypair, [flaky])
            update = await client.get_update(node.label_for(0))
            return update, client.stats()

        update, stats = run_virtual(main())
        assert update.verify(group, node_keypair.public)
        assert stats["retries"] >= 4

    def test_stalled_source_hits_per_request_timeout(
        self, group, node_keypair
    ):
        async def main():
            client = make_client(
                group, node_keypair, [StallTransport()], request_timeout=0.5
            )
            deadline = Deadline.after(client._clock, 2.0)
            loop = asyncio.get_event_loop()
            start = loop.time()
            with pytest.raises(ServiceTimeoutError):
                await client.get_update(b"epoch:000000000000", deadline)
            return loop.time() - start

        # Bounded by the overall deadline, not by the stall.
        assert run_virtual(main()) <= 2.0 + 1e-9

    def test_total_timeout_bounds_the_operation(self, group, node_keypair):
        async def main():
            client = make_client(
                group,
                node_keypair,
                [DeadTransport()],
                total_timeout=3.0,
            )
            loop = asyncio.get_event_loop()
            start = loop.time()
            with pytest.raises(ServiceTimeoutError):
                await client.get_update(b"epoch:000000000000")
            return loop.time() - start

        assert run_virtual(main()) <= 3.0 + 1e-9


class TestFailover:
    def test_mirror_answers_when_primary_is_dead(self, group, node_keypair):
        async def main():
            node = await started_node(group, node_keypair)
            client = make_client(
                group,
                node_keypair,
                [DeadTransport(), LocalNodeTransport(node)],
            )
            update = await client.get_update(node.label_for(0))
            return update, client.stats()

        update, stats = run_virtual(main())
        assert update.verify(group, node_keypair.public)
        assert stats["failovers"] >= 1

    def test_breaker_opens_on_a_dead_primary(self, group, node_keypair):
        async def main():
            node = await started_node(group, node_keypair)
            client = make_client(
                group,
                node_keypair,
                [DeadTransport(), LocalNodeTransport(node)],
                failure_threshold=2,
            )
            # Each label forces a fresh sweep starting at the primary.
            for epoch in (0, 0, 0):
                client.updates.clear()
                await client.get_update(node.label_for(epoch))
            return client.breakers[0].state, client.stats()

        state, stats = run_virtual(main())
        assert state == OPEN
        assert stats["breaker_trips"] >= 1


class TestVerificationGate:
    def test_tampered_update_rejected_then_honest_retry_wins(
        self, group, node_keypair
    ):
        async def main():
            node = await started_node(group, node_keypair)
            tamper = TamperTransport(LocalNodeTransport(node), tampers=2)
            client = make_client(group, node_keypair, [tamper])
            update = await client.get_update(node.label_for(0))
            return update, client.stats()

        update, stats = run_virtual(main())
        assert update.verify(group, node_keypair.public)
        assert stats["rejected"] == 2

    def test_forged_server_never_accepted(self, group, node_keypair, rng):
        """A whole node signing under the wrong key yields nothing."""
        from repro.core.keys import ServerKeyPair

        imposter_keys = ServerKeyPair.generate(group, rng)

        async def main():
            imposter = await started_node(group, imposter_keys)
            client = make_client(
                group,
                node_keypair,  # trust anchor: the honest key
                [LocalNodeTransport(imposter)],
                total_timeout=5.0,
            )
            with pytest.raises(ServiceTimeoutError):
                await client.get_update(imposter.label_for(0))
            return client.updates, client.stats()

        cache, stats = run_virtual(main())
        assert cache == {}
        assert stats["rejected"] > 0

    def test_corrupt_announce_dropped_not_cached(self, group, node_keypair):
        async def main():
            node = await started_node(group, node_keypair)
            client = make_client(
                group, node_keypair, [LocalNodeTransport(node)]
            )
            update = node._server.lookup(node.label_for(0))
            good = wire.encode_message(
                wire.Announce(update.to_bytes(group))
            )
            bad = bytearray(good)
            bad[-1] ^= 0x20
            assert client.ingest_frame(bytes(bad)) is None
            assert client.ingest_frame(b"not a frame") is None
            assert client.ingest_frame(good) is not None
            return client.updates, client.stats()

        cache, stats = run_virtual(main())
        assert len(cache) == 1
        assert stats["rejected"] == 2

    def test_announces_replay_the_server_key(self, rng):
        """From the second announce on, the gate replays ``(D, G)``.

        A fresh group keeps the session fixture's caches out of it.
        """
        from repro.core.bls import BLSSignatureScheme
        from repro.core.keys import ServerKeyPair
        from repro.core.timeserver import TimeBoundKeyUpdate
        from repro.pairing.api import PairingGroup

        group = PairingGroup("toy64", family="A")
        keypair = ServerKeyPair.generate(group, rng)
        bls = BLSSignatureScheme(group)

        def announce(label, point=None):
            if point is None:
                point = bls.sign(keypair, label)
            update = TimeBoundKeyUpdate(label, point)
            return wire.encode_message(wire.Announce(update.to_bytes(group)))

        client = make_client(group, keypair, [DeadTransport()])
        for epoch in range(3):
            assert client.ingest_frame(announce(b"T%d" % epoch)) is not None
        assert set(group._pairing_precomp) == {
            keypair.public.cofactor_s_generator(group),
            keypair.public.generator,
        }
        forged = bls.sign(keypair, b"T3") + keypair.public.generator
        assert client.ingest_frame(announce(b"T3", forged)) is None
        assert client.stats()["rejected"] == 1
        assert sorted(client.updates) == [b"T0", b"T1", b"T2"]

    def test_listener_lifecycle_owned_by_close(self, group, node_keypair):
        async def main():
            node = await started_node(group, node_keypair)
            client = make_client(
                group, node_keypair, [LocalNodeTransport(node)]
            )
            queue = asyncio.Queue()
            first = client.start_listening(queue)
            # A second start cancels the first listener: exactly one
            # announce consumer exists at any time.
            second = client.start_listening(queue)
            await asyncio.sleep(0)
            assert first.cancelled()
            assert not second.done()

            update = node._server.lookup(node.label_for(0))
            queue.put_nowait(
                wire.encode_message(wire.Announce(update.to_bytes(group)))
            )
            await asyncio.sleep(0.1)
            assert len(client.updates) == 1

            await client.close()
            assert second.cancelled()
            assert client._listener_task is None
            # Idempotent: a second close with nothing running is a no-op.
            await client.close()

        run_virtual(main())


class TestCatchUp:
    def test_catch_up_authenticates_the_backlog(self, group, node_keypair):
        async def main():
            node = await started_node(group, node_keypair)
            await asyncio.sleep(5.5)
            client = make_client(
                group, node_keypair, [LocalNodeTransport(node)]
            )
            accepted = await client.catch_up()
            return accepted, client.stats()

        accepted, stats = run_virtual(main())
        assert [u.time_label for u in accepted] == [
            f"epoch:{e:012d}".encode() for e in range(6)
        ]
        assert stats["rejected"] == 0

    def test_one_corrupt_blob_does_not_sink_the_batch(
        self, group, node_keypair
    ):
        async def main():
            node = await started_node(group, node_keypair)
            await asyncio.sleep(3.5)
            tamper = TamperTransport(LocalNodeTransport(node), tampers=1)
            client = make_client(group, node_keypair, [tamper])
            accepted = await client.catch_up()
            return accepted, client.stats()

        accepted, stats = run_virtual(main())
        # Epoch 0's blob was corrupted; 1..3 still land.
        assert [u.time_label for u in accepted] == [
            f"epoch:{e:012d}".encode() for e in (1, 2, 3)
        ]
        assert stats["rejected"] == 1

    def test_incremental_catch_up_after(self, group, node_keypair):
        async def main():
            node = await started_node(group, node_keypair)
            await asyncio.sleep(4.5)
            client = make_client(
                group, node_keypair, [LocalNodeTransport(node)]
            )
            accepted = await client.catch_up(after=node.label_for(2))
            return [u.time_label for u in accepted]

        assert run_virtual(main()) == [
            f"epoch:{e:012d}".encode() for e in (3, 4)
        ]


class TestDecryptQueue:
    def test_parked_ciphertexts_decrypt_after_release(
        self, group, node_keypair, node_user, scheme, rng
    ):
        async def main():
            node = await started_node(group, node_keypair)
            client = make_client(
                group, node_keypair, [LocalNodeTransport(node)]
            )
            messages = [b"first", b"second"]
            for index, message in enumerate(messages):
                ciphertext = scheme.encrypt(
                    message,
                    node_user.public,
                    node_keypair.public,
                    node.label_for(index + 2),
                    rng,
                )
                client.park(scheme, ciphertext, node_user)
            parked_before = client.parked
            plaintexts = await client.drain()
            loop_time = asyncio.get_event_loop().time()
            return parked_before, plaintexts, loop_time

        parked, plaintexts, when = run_virtual(main())
        assert parked == 2
        assert plaintexts == [b"first", b"second"]
        assert when >= 3.0  # could not finish before epoch 3 existed

    def test_announce_wakes_a_parked_decrypt_early(
        self, group, node_keypair, node_user, scheme, rng
    ):
        async def main():
            node = await started_node(group, node_keypair)
            transport = LocalNodeTransport(node)
            client = make_client(
                group,
                node_keypair,
                [transport],
                # Backoff so long that polling alone would miss the
                # release by hours; only the announce can wake it.
                backoff=ExponentialBackoff(
                    seeded_rng(1), base=9000.0, max_delay=9000.0
                ),
            )
            listener = asyncio.get_event_loop().create_task(
                client.listen(transport.subscribe())
            )
            ciphertext = scheme.encrypt(
                b"wake up",
                node_user.public,
                node_keypair.public,
                node.label_for(2),
                rng,
            )
            task = client.park(scheme, ciphertext, node_user)
            plaintext = await asyncio.wait_for(task, timeout=60.0)
            listener.cancel()
            return plaintext, asyncio.get_event_loop().time()

        plaintext, when = run_virtual(main())
        assert plaintext == b"wake up"
        assert when < 60.0  # far sooner than the first 9000s poll


class TestWaiters:
    def test_fetches_that_give_up_leave_no_waiter(self, group, node_keypair):
        """Ten 1 s fetches of unreleased epochs each time out; none
        leaves its announce waiter behind."""
        async def main():
            node = await started_node(group, node_keypair)
            client = make_client(
                group, node_keypair, [LocalNodeTransport(node)]
            )
            for epoch in range(100, 110):
                deadline = Deadline.after(client._clock, 1.0)
                with pytest.raises(ServiceTimeoutError):
                    await client.get_update(node.label_for(epoch), deadline)
            return dict(client._waiters), dict(client._fetching)

        assert run_virtual(main()) == ({}, {})

    def test_shared_waiter_outlives_the_first_fetch_to_give_up(
        self, group, node_keypair
    ):
        """Two fetches wait on one label: the short one gives up, the
        long one keeps the waiter and is still woken by the announce."""
        async def main():
            node = await started_node(group, node_keypair)
            transport = LocalNodeTransport(node)
            client = make_client(
                group,
                node_keypair,
                [transport],
                backoff=ExponentialBackoff(
                    seeded_rng(1), base=9000.0, max_delay=9000.0
                ),
            )
            client.start_listening(transport.subscribe())
            label = node.label_for(3)
            short = asyncio.get_event_loop().create_task(client.get_update(
                label, Deadline.after(client._clock, 1.0)
            ))
            long = asyncio.get_event_loop().create_task(
                client.get_update(label)
            )
            with pytest.raises(ServiceTimeoutError):
                await short
            left_behind = label in client._waiters
            update = await asyncio.wait_for(long, timeout=60.0)
            await client.close()
            return left_behind, update, client._waiters, client._fetching

        left_behind, update, waiters, fetching = run_virtual(main())
        assert left_behind
        assert update.verify(group, node_keypair.public)
        assert waiters == {} and fetching == {}


class TestPermanentErrors:
    def test_bad_request_propagates_immediately(self, group, node_keypair):
        async def main():
            node = await started_node(group, node_keypair)
            client = make_client(
                group, node_keypair, [LocalNodeTransport(node)]
            )
            deadline = Deadline.never(client._clock)
            with pytest.raises(PermanentServiceError):
                await client._sweep(b"total garbage frame", deadline)
            return client.stats()

        stats = run_virtual(main())
        assert stats["retries"] == 0


class TestHealth:
    def test_health_probe_targets_one_source(self, group, node_keypair):
        async def main():
            node = await started_node(group, node_keypair)
            client = make_client(
                group,
                node_keypair,
                [DeadTransport(), LocalNodeTransport(node)],
            )
            with pytest.raises(ServiceUnavailableError):
                await client.health(source=0)
            return await client.health(source=1)

        fields = run_virtual(main())
        assert fields[b"status"] == b"ok"
