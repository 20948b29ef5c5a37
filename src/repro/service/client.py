"""The resilient time client: retries, failover, catch-up, decrypt queue.

:class:`ResilientTimeClient` is the receiver-side counterpart of
:class:`~repro.service.node.TimeServerNode`.  Its one inviolable rule
comes straight from the paper: **no update enters the cache without
passing ``ê(sG, H1(T)) == ê(G, I_T)``** — not from a response, not
from an announce broadcast, not from an archive backlog.  A forged or
corrupted update is indistinguishable from a network fault: it is
counted, rejected, and retried, so fault injection can corrupt bytes
at will without ever poisoning a decryption.

Around that rule sit the standard resilience layers, all built from
:mod:`repro.service.retry` and therefore deterministic under
:class:`~repro.service.virtualtime.VirtualTimeLoop`:

* per-request timeouts (``asyncio.wait_for`` against the loop clock);
* a circuit breaker per source, so a dead primary stops eating the
  deadline budget;
* failover sweeps across primary + mirrors, then full-jitter
  exponential backoff between sweeps;
* archive catch-up (:meth:`catch_up`) that batch-authenticates the
  backlog with :func:`~repro.core.timeserver.verify_archive` and keeps
  the good entries even when some are corrupt;
* a decrypt queue (:meth:`park` / :meth:`drain`) holding ciphertexts
  until the verified ``I_T`` for their release time arrives — graceful
  degradation instead of failure while the server is unreachable.
"""

from __future__ import annotations

import asyncio
import random
from typing import Iterable

from repro.core.timeserver import TimeBoundKeyUpdate, verify_archive
from repro.errors import (
    ParameterError,
    ReproError,
    ServiceTimeoutError,
    TransientServiceError,
)
from repro.service import wire
from repro.service.retry import CircuitBreaker, Deadline, ExponentialBackoff


class ResilientTimeClient:
    """Fetches and caches verified time-bound key updates, resiliently.

    Parameters
    ----------
    group, server_public:
        The pairing group and the time server's public key ``sG`` —
        the trust anchor every incoming update is verified against.
    sources:
        Transports to try in order: the primary first, then mirrors.
        Any object with ``async request(bytes) -> bytes`` works
        (:class:`~repro.service.node.LocalNodeTransport`, a
        :class:`~repro.service.faults.FaultyTransport`, ...).
    rng:
        Seeded RNG driving backoff jitter — the only randomness here.
    request_timeout:
        Per-attempt timeout in loop seconds.
    total_timeout:
        Default overall deadline for one operation; ``None`` means
        retry forever (the decrypt queue's mode: park until released).
    """

    def __init__(
        self,
        group,
        server_public,
        sources: Iterable,
        rng: random.Random,
        request_timeout: float = 1.0,
        total_timeout: float | None = None,
        backoff: ExponentialBackoff | None = None,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
        name: str = "client",
    ):
        self.group = group
        self.server_public = server_public
        self.transports = list(sources)
        if not self.transports:
            raise ParameterError("need at least one source transport")
        self.rng = rng
        self.request_timeout = request_timeout
        self.total_timeout = total_timeout
        self.backoff = backoff or ExponentialBackoff(rng)
        self.breakers = [
            CircuitBreaker(
                self._clock,
                failure_threshold=failure_threshold,
                reset_timeout=reset_timeout,
            )
            for _ in self.transports
        ]
        self.name = name
        self.updates: dict[bytes, TimeBoundKeyUpdate] = {}
        self._waiters: dict[bytes, asyncio.Future] = {}
        self._parked: list[asyncio.Task] = []
        self._listener_task: asyncio.Task | None = None
        # Observability counters (see stats()).
        self.attempts = 0
        self.failovers = 0
        self.retries = 0
        self.rejected = 0

    def _clock(self) -> float:
        return asyncio.get_running_loop().time()

    def _deadline(self, deadline: Deadline | None) -> Deadline:
        if deadline is not None:
            return deadline
        if self.total_timeout is None:
            return Deadline.never(self._clock)
        return Deadline.after(self._clock, self.total_timeout)

    # ------------------------------------------------------------------
    # The verification gate.  Every update passes through here.
    # ------------------------------------------------------------------

    def _ingest(self, update_bytes: bytes) -> TimeBoundKeyUpdate:
        """Decode + authenticate one update, or raise a transient error.

        Corrupt bytes and forged points both land in the same bucket as
        a flaky network: reject, count, let the retry policy try again.
        """
        try:
            update = TimeBoundKeyUpdate.from_bytes(self.group, update_bytes)
        except ReproError as exc:
            self.rejected += 1
            raise TransientServiceError(f"undecodable update: {exc}") from exc
        if not update.verify(self.group, self.server_public):
            self.rejected += 1
            raise TransientServiceError(
                f"update for {update.time_label!r} failed "
                "e(sG, H1(T)) == e(G, I_T)"
            )
        self._accept(update)
        return update

    def _accept(self, update: TimeBoundKeyUpdate) -> None:
        """Cache a *verified* update and wake anyone waiting for it."""
        self.updates[update.time_label] = update
        waiter = self._waiters.pop(update.time_label, None)
        if waiter is not None and not waiter.done():
            waiter.set_result(update)

    def ingest_frame(self, frame: bytes) -> TimeBoundKeyUpdate | None:
        """Feed one pushed wire frame (an ``announce``) into the cache.

        Returns the verified update, or ``None`` if the frame was
        malformed, not an announce, or failed authentication — push
        channels are unsolicited, so bad frames are dropped, not raised.
        """
        try:
            message = wire.decode_message(frame)
        except ReproError:
            self.rejected += 1
            return None
        if not isinstance(message, wire.Announce):
            self.rejected += 1
            return None
        try:
            return self._ingest(message.update_bytes)
        except TransientServiceError:
            return None

    async def listen(self, queue: asyncio.Queue) -> None:
        """Consume announce frames forever (run as a background task).

        Prefer :meth:`start_listening`, which owns the task so
        :meth:`close` can cancel and await it.
        """
        while True:
            self.ingest_frame(await queue.get())

    def start_listening(self, queue: asyncio.Queue) -> asyncio.Task:
        """Spawn (and own) the announce-listener task for ``queue``.

        The client tracks exactly one listener: starting a new one
        cancels the previous.  :meth:`close` cancels and awaits it, so
        no announce consumer outlives the client.
        """
        if self._listener_task is not None and not self._listener_task.done():
            self._listener_task.cancel()
        self._listener_task = asyncio.get_running_loop().create_task(
            self.listen(queue)
        )
        return self._listener_task

    async def close(self) -> None:
        """Cancel and await the listener and any parked decryptions.

        Idempotent; safe to call with nothing running.  Pending waiters
        are cancelled too, so a coroutine blocked in :meth:`get_update`
        fails fast instead of sleeping out its backoff against a closed
        client.
        """
        tasks = [
            task
            for task in [self._listener_task, *self._parked]
            if task is not None and not task.done()
        ]
        for task in tasks:
            task.cancel()
        if tasks:
            # Shutdown: outcomes no longer matter, only completion.
            await asyncio.gather(*tasks, return_exceptions=True)
        self._listener_task = None
        self._parked.clear()
        for waiter in self._waiters.values():
            if not waiter.done():
                waiter.cancel()
        self._waiters.clear()

    # ------------------------------------------------------------------
    # One failover sweep: each source once, breaker-gated, with a
    # per-attempt timeout.  No sleeping here — backoff lives upstairs.
    # ------------------------------------------------------------------

    async def _sweep(self, payload: bytes, deadline: Deadline) -> wire.Message:
        last: TransientServiceError | None = None
        for index, (transport, breaker) in enumerate(
            zip(self.transports, self.breakers)
        ):
            deadline.require("sweeping sources")
            if index > 0:
                self.failovers += 1
            try:
                breaker.check()
            except TransientServiceError as exc:
                last = exc
                continue
            self.attempts += 1
            timeout = deadline.clamp(self.request_timeout)
            try:
                raw = await asyncio.wait_for(
                    transport.request(payload), timeout
                )
                response = wire.decode_message(raw)
            except (TimeoutError, asyncio.TimeoutError) as exc:
                breaker.record_failure()
                last = ServiceTimeoutError(
                    f"source {index} timed out after {timeout:.3f}s"
                )
                last.__cause__ = exc
                continue
            except TransientServiceError as exc:
                breaker.record_failure()
                last = exc
                continue
            except ReproError as exc:
                # Undecodable response frame == corrupt wire bytes.
                breaker.record_failure()
                last = TransientServiceError(f"corrupt response: {exc}")
                last.__cause__ = exc
                continue
            # The transport worked; application-level errors do not trip
            # the breaker (a not-yet-released label is nobody's outage).
            breaker.record_success()
            if isinstance(response, wire.ErrorResponse):
                exc = response.to_exception()
                if isinstance(exc, TransientServiceError):
                    last = exc
                    continue
                raise exc
            return response
        raise last if last is not None else TransientServiceError(
            "no source available"
        )

    async def _call(
        self, payload: bytes, deadline: Deadline, doing: str
    ) -> wire.Message:
        """Sweep + full-jitter backoff until success, deadline, or a
        permanent error."""
        attempt = 0
        while True:
            deadline.require(doing)
            try:
                return await self._sweep(payload, deadline)
            except ServiceTimeoutError:
                if deadline.expired:
                    raise
            except TransientServiceError:
                pass
            self.retries += 1
            await asyncio.sleep(
                deadline.clamp(self.backoff.delay(attempt))
            )
            attempt += 1

    # ------------------------------------------------------------------
    # Operations.
    # ------------------------------------------------------------------

    async def get_update(
        self, time_label: bytes, deadline: Deadline | None = None
    ) -> TimeBoundKeyUpdate:
        """The verified ``I_T`` for ``time_label``, fetching if needed.

        Retries transient failures (including forged/corrupt responses
        and "not released yet") until the deadline; with the default
        unbounded deadline this is exactly the liveness property the
        chaos suite checks — once ``T`` passes and the network delivers
        one honest response, this returns.
        """
        deadline = self._deadline(deadline)
        attempt = 0
        payload = wire.encode_message(wire.GetUpdate(time_label))
        while True:
            cached = self.updates.get(time_label)
            if cached is not None:
                return cached
            deadline.require(f"fetching update for {time_label!r}")
            try:
                response = await self._sweep(payload, deadline)
                if isinstance(response, wire.UpdateResponse):
                    update = self._ingest(response.update_bytes)
                    if update.time_label == time_label:
                        return update
                    # A verified update for the wrong label is still a
                    # wrong answer (e.g. a reordered response).
                    raise TransientServiceError(
                        f"asked for {time_label!r}, got "
                        f"{update.time_label!r}"
                    )
                raise TransientServiceError(
                    f"unexpected response {type(response).__name__}"
                )
            except ServiceTimeoutError:
                if deadline.expired:
                    raise
            except TransientServiceError:
                pass
            self.retries += 1
            # Sleep with one ear open: an announce for this label ends
            # the wait early instead of burning the whole backoff.
            await self._pause(time_label, attempt, deadline)
            attempt += 1

    async def _pause(
        self, time_label: bytes, attempt: int, deadline: Deadline
    ) -> None:
        delay = deadline.clamp(self.backoff.delay(attempt))
        waiter = self._waiters.get(time_label)
        if waiter is None or waiter.done():
            waiter = asyncio.get_running_loop().create_future()
            self._waiters[time_label] = waiter
        await asyncio.wait([waiter], timeout=delay)

    async def catch_up(
        self, after: bytes = b"", deadline: Deadline | None = None
    ) -> list[TimeBoundKeyUpdate]:
        """Fetch and authenticate the archive backlog past ``after``.

        The whole batch goes through :func:`verify_archive`; entries
        that fail are rejected and counted while the verified remainder
        still lands in the cache — one corrupt blob must not cost the
        client the other hundred updates.
        """
        deadline = self._deadline(deadline)
        payload = wire.encode_message(wire.GetArchive(after))
        response = await self._call(payload, deadline, "catching up")
        if not isinstance(response, wire.ArchiveResponse):
            raise TransientServiceError(
                f"unexpected response {type(response).__name__}"
            )
        decoded: list[TimeBoundKeyUpdate] = []
        for blob in response.update_blobs:
            try:
                decoded.append(TimeBoundKeyUpdate.from_bytes(self.group, blob))
            except ReproError:
                self.rejected += 1
        failed = set(verify_archive(self.group, self.server_public, decoded))
        accepted = []
        for update in decoded:
            if update.time_label in failed:
                self.rejected += 1
                continue
            self._accept(update)
            accepted.append(update)
        return accepted

    async def health(
        self, source: int = 0, timeout: float | None = None
    ) -> dict[bytes, bytes]:
        """Probe one specific source (no failover — that is the point)."""
        payload = wire.encode_message(wire.Health())
        try:
            raw = await asyncio.wait_for(
                self.transports[source].request(payload),
                timeout if timeout is not None else self.request_timeout,
            )
            response = wire.decode_message(raw)
        except (TimeoutError, asyncio.TimeoutError) as exc:
            raise ServiceTimeoutError(
                f"health probe of source {source} timed out"
            ) from exc
        if not isinstance(response, wire.HealthResponse):
            raise TransientServiceError(
                f"unexpected response {type(response).__name__}"
            )
        return response.as_dict()

    # ------------------------------------------------------------------
    # The decrypt queue: graceful degradation while the server is away.
    # ------------------------------------------------------------------

    async def decrypt_when_released(
        self, scheme, ciphertext, receiver, deadline: Deadline | None = None
    ) -> bytes:
        """Wait for the verified update for this ciphertext, then decrypt.

        ``scheme.decrypt`` re-checks label match and authenticity,
        although the cache only ever holds updates verified under
        :attr:`server_public`.  The cached update carries that verdict
        (:meth:`~repro.core.timeserver.TimeBoundKeyUpdate.verify`), so
        the re-check under the same key object does no pairing and no
        subgroup check.
        """
        update = await self.get_update(ciphertext.time_label, deadline)
        return scheme.decrypt(
            ciphertext, receiver, update, server_public=self.server_public
        )

    def park(self, scheme, ciphertext, receiver) -> asyncio.Task:
        """Queue a ciphertext for decryption whenever its ``I_T`` arrives.

        Returns the task; :meth:`drain` gathers all parked results in
        parking order.  Parked work never expires on its own — it rides
        the unbounded default deadline until the release time passes
        and connectivity allows one successful fetch.
        """
        task = asyncio.get_running_loop().create_task(
            self.decrypt_when_released(
                scheme, ciphertext, receiver, Deadline.never(self._clock)
            )
        )
        self._parked.append(task)
        return task

    @property
    def parked(self) -> int:
        return sum(1 for task in self._parked if not task.done())

    async def drain(self) -> list[bytes]:
        """Await every parked decryption; returns plaintexts in order."""
        results = await asyncio.gather(*self._parked)
        self._parked.clear()
        return results

    def stats(self) -> dict[str, int]:
        return {
            "attempts": self.attempts,
            "failovers": self.failovers,
            "retries": self.retries,
            "rejected": self.rejected,
            "cached": len(self.updates),
            "parked": self.parked,
            "breaker_trips": sum(b.trips for b in self.breakers),
        }

    def __repr__(self) -> str:
        return (
            f"ResilientTimeClient({self.name}, "
            f"sources={len(self.transports)}, cached={len(self.updates)})"
        )
