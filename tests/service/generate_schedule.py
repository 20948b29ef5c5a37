"""Regenerate ``tests/service/schedule.json``, the pinned client schedule.

Run from the repository root::

    PYTHONPATH=src python tests/service/generate_schedule.py

One seeded scenario on :func:`~repro.service.virtualtime.run_virtual`
drives a :class:`~repro.service.client.ResilientTimeClient` through
every control path of the service layer:

* a primary and a mirror node, each behind a :class:`FaultPlan` that
  drops, delays, duplicates and corrupts, with a dead source between
  them, so failover happens and the dead source's breaker trips;
* a fetch that runs out of its deadline;
* a fetch of a future epoch whose announce lands mid-backoff;
* ``catch_up`` over archives whose second blob is always corrupted;
* ``health`` probes of the dead source and of both live ones;
* a crash and snapshot restart of the primary, and a stop and start of
  the mirror, with fetches around them.

The transcript records every request frame each source saw, with the
response's message class (or the exception class), every backoff draw,
the virtual time of each, every operation's outcome, and the final
``stats()`` and node counters.  It was generated once and committed;
``test_schedule.py`` replays it.  Regenerate only when a change is
*meant* to move the schedule, and say so in the commit.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pathlib

from repro.core.keys import ServerKeyPair
from repro.core.timeserver import TimeBoundKeyUpdate
from repro.crypto.rng import seeded_rng
from repro.errors import ReproError, ServiceUnavailableError
from repro.pairing.api import PairingGroup
from repro.service import wire
from repro.service.client import ResilientTimeClient
from repro.service.faults import FaultPlan, FaultyTransport
from repro.service.node import LocalNodeTransport, TimeServerNode
from repro.service.retry import Deadline, ExponentialBackoff
from repro.service.virtualtime import run_virtual

OUT = pathlib.Path(__file__).with_name("schedule.json")

SEED = 0x5C4ED
RATES = dict(drop=0.2, delay=0.3, duplicate=0.2, corrupt=0.2, delay_scale=0.3)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class DeadTransport:
    """A source whose process is gone: every request fails at once."""

    async def request(self, payload: bytes) -> bytes:
        raise ServiceUnavailableError("dead source")


class BlobTamper:
    """Flips one bit of the second blob of every archive response."""

    def __init__(self, inner):
        self.inner = inner

    async def request(self, payload: bytes) -> bytes:
        raw = await self.inner.request(payload)
        message = wire.decode_message(raw)
        if not isinstance(message, wire.ArchiveResponse):
            return raw
        blobs = list(message.update_blobs)
        if len(blobs) < 2:
            return raw
        blob = bytearray(blobs[1])
        blob[-1] ^= 0x40
        blobs[1] = bytes(blob)
        return wire.encode_message(wire.ArchiveResponse(tuple(blobs)))


class Recorder:
    """Logs each exchange the client has with one source, as it sees it."""

    def __init__(self, inner, name: str, log: list):
        self.inner = inner
        self.name = name
        self.log = log

    async def request(self, payload: bytes) -> bytes:
        loop = asyncio.get_running_loop()
        entry = {"at": loop.time(), "source": self.name, "request": payload.hex()}
        self.log.append(entry)
        try:
            raw = await self.inner.request(payload)
        except BaseException as exc:
            entry["outcome"] = type(exc).__name__
            entry["done"] = loop.time()
            raise
        try:
            entry["outcome"] = type(wire.decode_message(raw)).__name__
        except ReproError as exc:
            entry["outcome"] = f"undecodable:{type(exc).__name__}"
        entry["response"] = digest(raw)
        entry["done"] = loop.time()
        return raw


class RecordingBackoff(ExponentialBackoff):
    """Full-jitter backoff that logs every draw with its virtual time."""

    def __init__(self, rng, log: list, **kwargs):
        super().__init__(rng, **kwargs)
        self.log = log

    def delay(self, attempt: int) -> float:
        value = super().delay(attempt)
        self.log.append(
            {
                "at": asyncio.get_running_loop().time(),
                "backoff": attempt,
                "delay": value,
            }
        )
        return value


def summary(group, result):
    if isinstance(result, TimeBoundKeyUpdate):
        return {"update": result.time_label.decode(),
                "bytes": digest(result.to_bytes(group))}
    if isinstance(result, list):
        return [update.time_label.decode() for update in result]
    if isinstance(result, dict):
        return {key.decode(): value.decode() for key, value in result.items()}
    return repr(result)


def scenario_parts():
    group = PairingGroup("toy64", family="A")
    keypair = ServerKeyPair.generate(group, seeded_rng(SEED))
    return group, keypair


def run_schedule() -> dict:
    """Play the scenario once; returns the JSON-ready transcript."""
    group, keypair = scenario_parts()
    master = seeded_rng(SEED + 1)

    def sub():
        return seeded_rng(master.getrandbits(64))

    async def scenario():
        loop = asyncio.get_running_loop()
        log: list = []

        def note(event: str, **fields) -> None:
            log.append({"at": loop.time(), "event": event, **fields})

        primary = TimeServerNode(group, keypair, name="primary")
        mirror = TimeServerNode(group, keypair, name="mirror")
        await primary.start()
        await mirror.start()
        faults = [FaultPlan(sub(), **RATES), FaultPlan(sub(), **RATES)]
        transports = [
            FaultyTransport(BlobTamper(LocalNodeTransport(primary)), faults[0]),
            FaultyTransport(BlobTamper(LocalNodeTransport(mirror)), faults[1]),
        ]
        client = ResilientTimeClient(
            group,
            keypair.public,
            [
                Recorder(transports[0], "primary", log),
                Recorder(DeadTransport(), "dead", log),
                Recorder(transports[1], "mirror", log),
            ],
            sub(),
            request_timeout=0.5,
            backoff=RecordingBackoff(
                sub(), log, base=0.5, factor=2.0, max_delay=4.0
            ),
            failure_threshold=2,
            reset_timeout=2.0,
        )
        client.start_listening(primary.subscribe())

        async def op(name: str, coro):
            note("begin", op=name)
            try:
                result = await coro
            except ReproError as exc:
                note("raise", op=name, error=type(exc).__name__)
                return None
            note("end", op=name, result=summary(group, result))
            return result

        await op("get_update 0", client.get_update(primary.label_for(0)))
        await op(
            "get_update 50 within 2s",
            client.get_update(
                primary.label_for(50), Deadline.after(client._clock, 2.0)
            ),
        )
        await op("get_update 4", client.get_update(primary.label_for(4)))
        await op("catch_up", client.catch_up())
        await op("catch_up after 2", client.catch_up(primary.label_for(2)))
        for source in (1, 0, 2):
            await op(f"health {source}", client.health(source))

        snapshot = primary.snapshot()
        primary.crash()
        note("crash", node="primary")
        await op(
            "get_update during outage",
            client.get_update(primary.label_for(primary.current_epoch() + 1)),
        )
        await asyncio.sleep(1.0)
        restored = await primary.restart(snapshot)
        note("restart", node="primary", restored=restored)
        mirror.stop()
        note("stop", node="mirror")
        await asyncio.sleep(0.75)
        await mirror.start()
        note("start", node="mirror")
        epoch = primary.current_epoch() + 1
        await op("get_update next", client.get_update(primary.label_for(epoch)))
        await op("catch_up late", client.catch_up(primary.label_for(epoch - 3)))
        await client.close()

        counters = {
            name: {
                "requests_served": node.requests_served,
                "announcements": node.announcements,
                "crashes": node.crashes,
                "restarts": node.restarts,
                "health": {
                    key: str(value) for key, value in node.health().items()
                },
            }
            for name, node in (("primary", primary), ("mirror", mirror))
        }
        faulted = [
            {
                "dropped": transport.dropped,
                "delayed": transport.delayed,
                "duplicated": transport.duplicated,
                "corrupted": transport.corrupted,
            }
            for transport in transports
        ]
        return {
            "log": log,
            "stats": client.stats(),
            "breakers": [breaker.state for breaker in client.breakers],
            "nodes": counters,
            "faults": faulted,
            "cached": sorted(label.decode() for label in client.updates),
            "finished_at": loop.time(),
        }

    return run_virtual(scenario())


def main() -> None:
    transcript = run_schedule()
    OUT.write_text(json.dumps(transcript, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT} ({len(transcript['log'])} log entries)")


if __name__ == "__main__":
    main()
