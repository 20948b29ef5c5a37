"""Deterministic, seed-driven fault injection for the service layer.

Two composable injectors, both drawing every decision from one seeded
``random.Random`` so a whole chaos scenario replays byte-for-byte:

* :class:`FaultyTransport` wraps any request/response transport and
  perturbs individual exchanges — dropped requests (a long stall the
  client's per-request timeout converts into a retry), extra delay,
  duplicate delivery (the idempotent node sees the request twice), and
  bit-flipped *response* bytes.  Corrupted requests are modeled as
  drops: on a real network a frame that fails its checksum never
  reaches the peer, and modeling it as delivered would punish the
  client with a ``bad-request`` error for bytes it never sent.
* :class:`FaultyChannel` perturbs a push stream (the node's announce
  queue): drop, delay, duplicate, one-deep reorder, and corruption —
  corrupt announces must be *discarded by verification*, never
  accepted, which is exactly what the chaos property asserts.

The chaos suite's crash/restart schedule, ``NodeChaos``, is test
harness code and lives in ``tests/service/harness.py``.

:class:`FaultPlan` owns the probabilities and the RNG; transports and
channels share one plan when their faults should come from one seeded
stream.  Latency modeling stays in :mod:`repro.sim.network` — wrap a
:class:`~repro.service.node.LocalNodeTransport` carrying a latency
model inside a :class:`FaultyTransport` to get both.
"""

from __future__ import annotations

import asyncio
import random

from repro.errors import ParameterError, ServiceTimeoutError

# How long a "dropped" request hangs before the injector gives up on
# its own; the client's per-request timeout almost always fires first.
_STALL_SECONDS = 3600.0


class FaultPlan:
    """Probabilities plus the seeded RNG that rolls them.

    Rates are independent per-event probabilities in ``[0, 1]``;
    ``delay_scale`` bounds injected extra latency.
    """

    RATE_FIELDS = ("drop", "delay", "duplicate", "reorder", "corrupt")

    def __init__(
        self,
        rng: random.Random,
        drop: float = 0.0,
        delay: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        corrupt: float = 0.0,
        delay_scale: float = 0.25,
    ):
        for name, rate in zip(
            self.RATE_FIELDS, (drop, delay, duplicate, reorder, corrupt)
        ):
            if not 0.0 <= rate <= 1.0:
                raise ParameterError(f"{name} rate must be in [0, 1]")
        if delay_scale < 0:
            raise ParameterError("need delay_scale >= 0")
        self.rng = rng
        self.drop = drop
        self.delay = delay
        self.duplicate = duplicate
        self.reorder = reorder
        self.corrupt = corrupt
        self.delay_scale = delay_scale

    @classmethod
    def from_seed(cls, seed: int, **rates) -> "FaultPlan":
        """One seeded plan; same seed + rates → same fault schedule."""
        from repro.crypto.rng import seeded_rng

        # lint: allow[rng-discipline] fault injection must replay
        # byte-for-byte from its seed; this RNG never touches key or
        # nonce material, only fault-schedule coin flips.
        return cls(seeded_rng(seed), **rates)

    def coin(self, rate: float) -> bool:
        return self.rng.random() < rate

    def delay_amount(self) -> float:
        return self.rng.uniform(0.0, self.delay_scale)

    def corrupt_bytes(self, data: bytes) -> bytes:
        """Flip one bit — the smallest corruption verification must catch."""
        if not data:
            return data
        index = self.rng.randrange(len(data))
        bit = 1 << self.rng.randrange(8)
        return data[:index] + bytes([data[index] ^ bit]) + data[index + 1 :]


class FaultyTransport:
    """A request/response transport with a :class:`FaultPlan` in the path.

    Its ``name`` is ``faulty:`` and the inner transport's name.
    """

    def __init__(self, inner, plan: FaultPlan):
        self.inner = inner
        self.plan = plan
        self.name = f"faulty:{getattr(inner, 'name', 'transport')}"
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0
        self.corrupted = 0

    async def request(self, payload: bytes) -> bytes:
        plan = self.plan
        if plan.coin(plan.drop):
            self.dropped += 1
            await asyncio.sleep(_STALL_SECONDS)
            raise ServiceTimeoutError(f"{self.name}: request lost in transit")
        if plan.coin(plan.delay):
            self.delayed += 1
            await asyncio.sleep(plan.delay_amount())
        if plan.coin(plan.duplicate):
            # Duplicate *delivery*: the node answers twice, the network
            # hands the client one copy.  Exercises handler idempotency.
            self.duplicated += 1
            await self.inner.request(payload)
        response = await self.inner.request(payload)
        if plan.coin(plan.corrupt):
            self.corrupted += 1
            response = plan.corrupt_bytes(response)
        return response

    def subscribe(self) -> asyncio.Queue:
        return self.inner.subscribe()


class FaultyChannel:
    """A push stream (announce queue) with faults injected in transit.

    Pull frames from ``upstream``, perturb them, and deliver into
    :attr:`queue`; run :meth:`pump` as a background task.  Reordering is
    one-deep: a held-back frame is released right after its successor —
    enough to violate FIFO without unbounded buffering.
    """

    def __init__(self, upstream: asyncio.Queue, plan: FaultPlan):
        self.upstream = upstream
        self.plan = plan
        self.queue: asyncio.Queue = asyncio.Queue()
        self._held: bytes | None = None
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0
        self.reordered = 0
        self.corrupted = 0

    async def pump(self) -> None:
        while True:
            await self.deliver(await self.upstream.get())

    async def deliver(self, frame: bytes) -> None:
        """Apply the plan to one frame (public for step-by-step tests)."""
        plan = self.plan
        if plan.coin(plan.drop):
            self.dropped += 1
            self._flush_held()
            return
        if plan.coin(plan.corrupt):
            self.corrupted += 1
            frame = plan.corrupt_bytes(frame)
        if plan.coin(plan.delay):
            self.delayed += 1
            await asyncio.sleep(plan.delay_amount())
        if self._held is None and plan.coin(plan.reorder):
            self.reordered += 1
            self._held = frame
            return
        self.queue.put_nowait(frame)
        if plan.coin(plan.duplicate):
            self.duplicated += 1
            self.queue.put_nowait(frame)
        self._flush_held()

    def _flush_held(self) -> None:
        if self._held is not None:
            self.queue.put_nowait(self._held)
            self._held = None

