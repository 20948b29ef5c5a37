"""The supervised asyncio time-server node.

:class:`TimeServerNode` turns the library-object
:class:`~repro.core.timeserver.PassiveTimeServer` into a long-running
service while keeping the paper's passivity intact: the node *only*

* signs and announces ``I_T`` for each epoch on schedule (the epoch
  scheduler),
* answers archive/catch-up requests from its public archive, and
* reports health/readiness.

It holds no per-user state and never interacts with senders.  All time
comes from the event loop's clock (``loop.time()``), so under a
:class:`~repro.service.virtualtime.VirtualTimeLoop` the node is fully
deterministic; an optional ``clock_skew`` models a drifting server
clock for fault injection.

Crash/restart recovery mirrors a real process supervisor: the
*supervisor* owns the :class:`~repro.core.keys.ServerKeyPair` and the
latest archive snapshot (:meth:`TimeServerNode.snapshot` →
``PassiveTimeServer.snapshot_archive``, public data only — no secret
is ever serialized).  :meth:`crash` drops the in-memory server state;
:meth:`restart` rebuilds it from the keypair, re-verifies and re-loads
the snapshot, then lets the epoch scheduler republish every epoch
missed during the outage so the archive resumes gap-free.  :meth:`start`
and :meth:`restart` share one boot path; :meth:`crash` is :meth:`stop`
plus the loss of the server state.
"""

from __future__ import annotations

import asyncio
import random

from repro.core.keys import ServerKeyPair, ServerPublicKey
from repro.core.timeserver import PassiveTimeServer, epoch_label
from repro.errors import (
    ParameterError,
    ReproError,
    ServiceUnavailableError,
    UpdateNotAvailableError,
)
from repro.pairing.api import PairingGroup
from repro.service import wire


class TimeServerNode:
    """An epoch-scheduled, restartable wrapper around the passive server.

    Parameters
    ----------
    group, keypair:
        The pairing group and the server identity.  The keypair is
        deliberately *not* generated here: it belongs to the
        supervisor, so the same identity survives crash/restart.
    epoch_interval:
        Seconds of loop time per epoch.  Epoch ``e`` covers
        ``[e * interval, (e+1) * interval)`` on the loop clock, so
        every node on one loop agrees on epoch numbering.
    prefix:
        Label family handed to :func:`~repro.core.timeserver.epoch_label`.
    max_clock_skew:
        Forward tolerance (in epochs) of the underlying release policy,
        passed straight to :class:`PassiveTimeServer`.
    clock_skew:
        Seconds added to the node's own reading of the loop clock —
        a deliberately wrong server clock, for fault injection.
    """

    def __init__(
        self,
        group: PairingGroup,
        keypair: ServerKeyPair,
        epoch_interval: float = 1.0,
        prefix: str = "epoch",
        max_clock_skew: int = 0,
        clock_skew: float = 0.0,
        name: str = "node",
    ):
        if epoch_interval <= 0:
            raise ParameterError("epoch_interval must be positive")
        self.group = group
        self.keypair = keypair
        self.epoch_interval = epoch_interval
        self.prefix = prefix
        self.max_clock_skew = max_clock_skew
        self.clock_skew = clock_skew
        self.name = name
        self.running = False
        self.ready = False
        self._server: PassiveTimeServer | None = None
        self._scheduler_task: asyncio.Task | None = None
        self._subscribers: list[asyncio.Queue] = []
        self._next_epoch = 0
        # Counters survive crash/restart: they describe the node, not
        # one incarnation of its state.
        self.requests_served = 0
        self.announcements = 0
        self.crashes = 0
        self.restarts = 0

    # ------------------------------------------------------------------
    # Clocks and labels.
    # ------------------------------------------------------------------

    @property
    def public_key(self) -> ServerPublicKey:
        return self.keypair.public

    def _loop_time(self) -> float:
        return asyncio.get_running_loop().time() + self.clock_skew

    def current_epoch(self) -> int:
        """The epoch this node believes it is in (skew included)."""
        return int(self._loop_time() // self.epoch_interval)

    def label_for(self, epoch: int) -> bytes:
        return epoch_label(epoch, self.prefix)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bring the node up and publish the current epoch immediately."""
        self._boot(fresh=False)

    async def restart(self, snapshot: bytes | None = None) -> int:
        """Recover from a crash, resuming the archive from ``snapshot``.

        Every snapshotted update is re-verified against this node's own
        public key before it re-enters the archive, so a corrupted
        snapshot cannot poison the node.  Returns the number of
        archive entries restored.  The epoch scheduler then republishes
        anything missed during the outage.
        """
        restored = self._boot(fresh=True, snapshot=snapshot)
        self.restarts += 1
        return restored

    def _boot(self, fresh: bool, snapshot: bytes | None = None) -> int:
        """The one boot path: build the server when ``fresh`` (or when
        there is none), restore ``snapshot`` into it, publish every due
        epoch from the first one missing and schedule the rest."""
        if self.running:
            raise ParameterError(f"{self.name} is already running")
        restored = 0
        if fresh or self._server is None:
            self._server = PassiveTimeServer(
                self.group,
                keypair=self.keypair,
                clock=self.current_epoch,
                max_clock_skew=self.max_clock_skew,
            )
            if snapshot is not None:
                restored = self._server.restore_archive(snapshot)
        self.running = True
        self._next_epoch = self._resume_epoch()
        self._publish_due_epochs()
        self.ready = True
        self._scheduler_task = asyncio.get_running_loop().create_task(
            self._scheduler()
        )
        return restored

    def stop(self) -> None:
        """Graceful shutdown: stop scheduling but keep in-memory state.

        Unlike :meth:`crash` the archive survives, so a later
        :meth:`start` resumes without a snapshot.  Requests still fail
        with :class:`ServiceUnavailableError` while stopped — a process
        that is not running answers nothing, gracefully down or not.
        """
        self.running = False
        self.ready = False
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            self._scheduler_task = None

    def crash(self) -> None:
        """Simulate process death: lose all in-memory state.

        The archive is gone (that is the point — recovery must come
        from :meth:`snapshot` bytes), requests start failing with
        :class:`ServiceUnavailableError`, and announcements stop.
        """
        self.stop()
        self._server = None
        self.crashes += 1

    def snapshot(self) -> bytes:
        """Serialized public archive state for the supervisor to keep."""
        if self._server is None:
            raise ServiceUnavailableError(f"{self.name} is down")
        return self._server.snapshot_archive()

    # ------------------------------------------------------------------
    # The epoch scheduler.
    # ------------------------------------------------------------------

    def _resume_epoch(self) -> int:
        """The oldest epoch not yet in the archive — publishing resumes
        there so an outage never leaves an archive gap."""
        assert self._server is not None
        family = f"{self.prefix}:".encode()
        published = [
            label
            for label in self._server.archive_labels()
            if label.startswith(family)
        ]
        if not published:
            return 0
        return int(published[-1].rsplit(b":", 1)[-1]) + 1

    def _publish_due_epochs(self) -> None:
        """Publish (and announce) every epoch due at the current time."""
        assert self._server is not None
        now_epoch = self.current_epoch()
        while self._next_epoch <= now_epoch:
            update = self._server.publish_update(
                self.label_for(self._next_epoch)
            )
            self._announce(update.to_bytes(self.group))
            self._next_epoch += 1

    async def _scheduler(self) -> None:
        """Sign and announce ``I_T`` at each epoch boundary, forever."""
        while self.running:
            next_boundary = self._next_epoch * self.epoch_interval
            delay = max(0.0, next_boundary - self._loop_time())
            await asyncio.sleep(delay)
            if not self.running:  # crashed while sleeping
                return
            self._publish_due_epochs()

    def _announce(self, update_bytes: bytes) -> None:
        frame = wire.encode_message(wire.Announce(update_bytes))
        for queue in self._subscribers:
            queue.put_nowait(frame)
        self.announcements += 1

    def subscribe(self) -> asyncio.Queue:
        """A queue of ``announce`` frames, one per published update."""
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.append(queue)
        return queue

    # ------------------------------------------------------------------
    # The request handler (archive / catch-up / health).
    # ------------------------------------------------------------------

    async def handle_request(self, payload: bytes) -> bytes:
        """Answer one wire frame; never raises for bad *input*.

        Malformed frames get a ``bad-request`` error response (the
        remote peer's problem must not crash the node); a down node
        raises :class:`ServiceUnavailableError` (the transport-level
        truth that there is no process to answer).
        """
        if not self.running or self._server is None:
            raise ServiceUnavailableError(f"{self.name} is down")
        self.requests_served += 1
        try:
            message = wire.decode_message(payload)
        except ReproError as exc:
            return wire.encode_message(
                wire.ErrorResponse(wire.ERR_BAD_REQUEST, str(exc).encode())
            )
        if isinstance(message, wire.GetUpdate):
            return self._handle_get_update(message.label)
        if isinstance(message, wire.GetArchive):
            blobs = tuple(
                update.to_bytes(self.group)
                for update in self._server.archive_since(message.after)
            )
            return wire.encode_message(wire.ArchiveResponse(blobs))
        if isinstance(message, wire.Health):
            return wire.encode_message(
                wire.HealthResponse(
                    tuple(
                        (key.encode(), str(value).encode())
                        for key, value in sorted(self.health().items())
                    )
                )
            )
        return wire.encode_message(
            wire.ErrorResponse(
                wire.ERR_BAD_REQUEST,
                f"unexpected message {type(message).__name__}".encode(),
            )
        )

    def _handle_get_update(self, label: bytes) -> bytes:
        assert self._server is not None
        try:
            update = self._server.lookup(label)
        except UpdateNotAvailableError:
            # Not archived yet — publish on demand iff its time has
            # passed (footnote 4: any instant can be signed directly);
            # the release policy still refuses future epochs.
            try:
                update = self._server.publish_update(label)
            except UpdateNotAvailableError as exc:
                return wire.encode_message(
                    wire.ErrorResponse(wire.ERR_UNAVAILABLE, str(exc).encode())
                )
        return wire.encode_message(
            wire.UpdateResponse(update.to_bytes(self.group))
        )

    def health(self) -> dict:
        """Liveness + readiness in one probe (cheap, no crypto)."""
        archive = (
            len(self._server.archive_labels())
            if self._server is not None
            else 0
        )
        return {
            "status": "ok" if self.running else "down",
            "ready": self.ready,
            "epoch": self.current_epoch(),
            "archive": archive,
            "announcements": self.announcements,
            "crashes": self.crashes,
        }

    def __repr__(self) -> str:
        state = "up" if self.running else "down"
        return f"TimeServerNode({self.name}, {state}, next={self._next_epoch})"


class LocalNodeTransport:
    """In-process transport to a node, with optional simulated latency.

    ``latency`` is a latency model as the :mod:`repro.sim.network`
    module docstring defines it, sampled independently for the request
    and the response leg.  Fault injection
    wraps *around* this class (:class:`repro.service.faults
    .FaultyTransport`), keeping "slow network" and "broken network"
    composable but separate.
    """

    def __init__(
        self,
        node: TimeServerNode,
        latency=None,
        rng: random.Random | None = None,
        name: str | None = None,
    ):
        if latency is not None and rng is None:
            raise ParameterError("a latency model needs an rng to sample")
        self.node = node
        self.latency = latency
        self.rng = rng
        self.name = name or f"local:{node.name}"

    async def _leg(self) -> None:
        if self.latency is not None:
            await asyncio.sleep(self.latency.sample(self.rng))

    async def request(self, payload: bytes) -> bytes:
        await self._leg()
        response = await self.node.handle_request(payload)
        await self._leg()
        return response

    def subscribe(self) -> asyncio.Queue:
        return self.node.subscribe()
