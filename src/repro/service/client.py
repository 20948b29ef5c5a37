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

* one exchange (``_exchange``): a request to one source under a
  timeout (``asyncio.wait_for`` against the loop clock), decoded —
  the sweep and :meth:`health` both go through it;
* one failover sweep (``_sweep``) across primary + mirrors, with a
  circuit breaker per source, so a dead primary stops eating the
  deadline budget;
* one retry loop (``_call``) with full-jitter exponential backoff
  between sweeps, shared by :meth:`get_update` (which also returns a
  cached update and wakes early on an announce) and :meth:`catch_up`;
* archive catch-up that batch-authenticates the backlog with
  :func:`~repro.core.timeserver.verify_archive` and keeps the good
  entries even when some are corrupt;
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


def _expect(response: wire.Message, cls: type):
    """``response`` if it is a ``cls``; a wrong type is transient."""
    if not isinstance(response, cls):
        raise TransientServiceError(
            f"unexpected response {type(response).__name__}"
        )
    return response


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
            message = None
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
    # The one exchange, the one sweep and the one retry loop.
    # ------------------------------------------------------------------

    async def _exchange(
        self, index: int, payload: bytes, timeout: float
    ) -> wire.Message:
        """One decoded request to source ``index``; a timeout raises
        :class:`ServiceTimeoutError`, other errors propagate."""
        try:
            raw = await asyncio.wait_for(
                self.transports[index].request(payload), timeout
            )
        except (TimeoutError, asyncio.TimeoutError) as exc:
            raise ServiceTimeoutError(
                f"source {index} timed out after {timeout:.3f}s"
            ) from exc
        return wire.decode_message(raw)

    async def _sweep(self, payload: bytes, deadline: Deadline) -> wire.Message:
        """Each source once, breaker-gated; no sleeping here."""
        last: TransientServiceError | None = None
        for index, breaker in enumerate(self.breakers):
            deadline.require("sweeping sources")
            if index > 0:
                self.failovers += 1
            try:
                breaker.check()
            except TransientServiceError as exc:
                last = exc
                continue
            self.attempts += 1
            try:
                response = await self._exchange(
                    index, payload, deadline.clamp(self.request_timeout)
                )
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
        self,
        payload: bytes,
        deadline: Deadline,
        doing: str,
        label: bytes | None = None,
    ) -> wire.Message | TimeBoundKeyUpdate:
        """Sweep + full-jitter backoff until success, deadline, or a
        permanent error.

        With a ``label`` the loop fetches that label's update: it
        returns a cached one before each sweep, accepts only a verified
        update for ``label``, and an announce for ``label`` ends a
        backoff early.  Without one it returns the first response.
        """
        attempt = 0
        while True:
            if label is not None and label in self.updates:
                return self.updates[label]
            deadline.require(doing)
            try:
                response = await self._sweep(payload, deadline)
                if label is None:
                    return response
                update = self._ingest(
                    _expect(response, wire.UpdateResponse).update_bytes
                )
                if update.time_label == label:
                    return update
                # A verified update for the wrong label is still a wrong
                # answer (e.g. a reordered response).
                raise TransientServiceError(
                    f"asked for {label!r}, got {update.time_label!r}"
                )
            except TransientServiceError as exc:
                if isinstance(exc, ServiceTimeoutError) and deadline.expired:
                    raise
            self.retries += 1
            await self._pause(label, attempt, deadline)
            attempt += 1

    async def _pause(
        self, label: bytes | None, attempt: int, deadline: Deadline
    ) -> None:
        """Back off; with a ``label``, sleep with one ear open for its
        announce instead of burning the whole backoff."""
        delay = deadline.clamp(self.backoff.delay(attempt))
        if label is None:
            await asyncio.sleep(delay)
            return
        waiter = self._waiters.get(label)
        if waiter is None or waiter.done():
            waiter = asyncio.get_running_loop().create_future()
            self._waiters[label] = waiter
        await asyncio.wait([waiter], timeout=delay)

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
        return await self._call(
            wire.encode_message(wire.GetUpdate(time_label)),
            self._deadline(deadline),
            f"fetching update for {time_label!r}",
            time_label,
        )

    async def catch_up(
        self, after: bytes = b"", deadline: Deadline | None = None
    ) -> list[TimeBoundKeyUpdate]:
        """Fetch and authenticate the archive backlog past ``after``.

        The whole batch goes through :func:`verify_archive`; entries
        that fail are rejected and counted while the verified remainder
        still lands in the cache — one corrupt blob must not cost the
        client the other hundred updates.
        """
        response = await self._call(
            wire.encode_message(wire.GetArchive(after)),
            self._deadline(deadline),
            "catching up",
        )
        decoded: list[TimeBoundKeyUpdate] = []
        for blob in _expect(response, wire.ArchiveResponse).update_blobs:
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
        """Probe one specific source: no breaker, no failover, no retry,
        and not counted in ``attempts``."""
        response = await self._exchange(
            source,
            wire.encode_message(wire.Health()),
            timeout if timeout is not None else self.request_timeout,
        )
        return _expect(response, wire.HealthResponse).as_dict()

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
