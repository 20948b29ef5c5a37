"""The paper's motivating applications, run end to end on the service stack.

* :func:`run_programming_contest` — §1: problem sets must reach teams
  all over the world *before* the start time but be unreadable until it;
  fairness is the spread of effective opening times across teams.
* :func:`run_sealed_bid_auction` — §1: bids are sealed until the close
  so that nobody (including the auctioneer handling them) can leak them
  to competitors early.
* :func:`run_threshold_beacon` — a k-of-N beacon releasing one epoch
  while some members are offline.

Each scenario runs under :func:`~repro.service.virtualtime.run_virtual`:
one virtual-time asyncio loop carries the links, the broadcast channel
and, in the contest and the auction, the real
:class:`~repro.service.node.TimeServerNode`.  Its ``epoch_interval`` is
the release time, so the release label is ``node.label_for(1)``.  One
pump task forwards every announce frame the node emits onto a
:class:`~repro.sim.network.BroadcastChannel`, which adds the
per-receiver jitter; receivers authenticate the update with
:meth:`~repro.service.client.ResilientTimeClient.ingest_frame` and
never send the node a request.  Equal-time timers do not run
first-in, first-out on the loop, so whatever a scenario does at one
instant (an organizer's sends, the members' shares) happens in one
callback, in a loop: the RNG draw order is the code's.

The results carry the measured timing/traffic plus the anonymity
ledger, so tests and benchmarks E10 (the contest) and E13 (the beacon)
can assert the paper's qualitative claims on concrete numbers.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.timeserver import TimeBoundKeyUpdate
from repro.core.tre import TimedReleaseScheme
from repro.errors import SimulationError
from repro.pairing.api import PairingGroup
from repro.service import wire
from repro.service.client import ResilientTimeClient
from repro.service.node import LocalNodeTransport, TimeServerNode
from repro.service.virtualtime import run_virtual
from repro.sim.metrics import AnonymityLedger
from repro.sim.network import (
    BroadcastChannel,
    NormalJitterLatency,
    UnicastLink,
    UniformLatency,
)


async def _sleep_until(when: float) -> None:
    """Sleep to loop time ``when``; every delivery due by then has run."""
    await asyncio.sleep(max(0.0, when - asyncio.get_running_loop().time()))


class _ReleasePump:
    """Forwards each announce frame of ``node`` onto ``channel``.

    The node announces every epoch from 0 on when it starts, so the
    pump keeps account of the frames that carry ``label`` only.
    """

    def __init__(
        self, node: TimeServerNode, channel: BroadcastChannel, label: bytes
    ):
        self.label = label
        self.announces = 0
        self.bytes = 0
        self.arrivals: list[float] = []
        self.released = asyncio.Event()
        queue = node.subscribe()
        self.task = asyncio.get_running_loop().create_task(
            self._forward(queue, node.group, channel)
        )

    async def _forward(self, queue, group, channel) -> None:
        while True:
            frame = await queue.get()
            arrivals = channel.publish(frame)
            update_bytes = wire.decode_message(frame).update_bytes
            update = TimeBoundKeyUpdate.from_bytes(group, update_bytes)
            if update.time_label == self.label:
                self.announces += 1
                self.bytes += len(frame)
                self.arrivals = arrivals
                self.released.set()


class _Receiver:
    """Holds ciphertexts and opens them once an announce is authenticated.

    It only listens: the frame goes through its client's
    :meth:`~repro.service.client.ResilientTimeClient.ingest_frame`, the
    wire decode and verification gate, and nothing is ever requested.
    A ciphertext that arrives after its update stays sealed.
    """

    def __init__(self, client: ResilientTimeClient, keypair: UserKeyPair):
        self.client = client
        self.keypair = keypair
        self.scheme = TimedReleaseScheme(client.group)
        self.held: list = []
        self.held_at: list[float] = []
        self.opened: list[tuple[bytes, float]] = []

    def receive_ciphertext(self, ciphertext) -> None:
        self.held.append(ciphertext)
        self.held_at.append(asyncio.get_running_loop().time())

    def receive_frame(self, frame: bytes) -> None:
        update = self.client.ingest_frame(frame)
        if update is None:
            return
        now = asyncio.get_running_loop().time()
        for ciphertext in self.held:
            if ciphertext.time_label == update.time_label:
                plaintext = self.scheme.decrypt(
                    ciphertext, self.keypair, update, self.client.server_public
                )
                self.opened.append((plaintext, now))


@dataclass
class ContestResult:
    """Timing outcome of one simulated contest."""

    contest_start: float
    tre_open_times: list[float]
    naive_open_times: list[float]
    update_arrivals: list[float]
    ciphertext_arrivals: list[float]
    server_broadcasts: int
    server_bytes: int
    ledger: AnonymityLedger

    @property
    def tre_spread(self) -> float:
        return max(self.tre_open_times) - min(self.tre_open_times)

    @property
    def naive_spread(self) -> float:
        return max(self.naive_open_times) - min(self.naive_open_times)

    @property
    def tre_worst_lag(self) -> float:
        """Worst opening delay past the official start (TRE arm)."""
        return max(t - self.contest_start for t in self.tre_open_times)

    @property
    def naive_worst_lag(self) -> float:
        return max(t - self.contest_start for t in self.naive_open_times)


def run_programming_contest(
    teams: int = 20,
    seed: int = 2005,
    problem_bytes: int = 20_000,
    message_latency=None,
    update_latency=None,
    send_lead_time: float = 3000.0,
) -> ContestResult:
    """Simulate a worldwide programming contest (paper §1) on toy64.

    The organizer TRE-encrypts the problem set with release time =
    contest start (3600 s of loop time), ships it to every team well in
    advance over slow, jittery links, and the passive time server
    broadcasts one tiny update at the start.  A parallel "naive" arm
    withholds the plaintext until the start and then ships it over the
    same links.
    """
    if teams < 1:
        raise SimulationError("need at least one team")
    rng = random.Random(seed)
    group = PairingGroup("toy64")
    contest_start = 3600.0
    message_latency = message_latency or UniformLatency(5.0, 240.0)
    update_latency = update_latency or NormalJitterLatency(0.08, 0.03)

    channel = BroadcastChannel(update_latency, rng)
    problems = UnicastLink(message_latency, rng)
    naive = UnicastLink(message_latency, rng)
    keypair = ServerKeyPair.generate(group, rng)
    node = TimeServerNode(
        group, keypair, epoch_interval=contest_start, prefix="contest"
    )
    start_label = node.label_for(1)
    scheme = TimedReleaseScheme(group)
    problem_set = rng.randbytes(problem_bytes)
    transport = LocalNodeTransport(node)
    receivers = [
        _Receiver(
            ResilientTimeClient(
                group, keypair.public, [transport], rng, name=f"team-{index}"
            ),
            UserKeyPair.generate(group, keypair.public, rng),
        )
        for index in range(teams)
    ]
    for receiver in receivers:
        channel.subscribe(receiver.receive_frame)

    async def contest() -> ContestResult:
        loop = asyncio.get_running_loop()
        pump = _ReleasePump(node, channel, start_label)
        await node.start()

        await _sleep_until(contest_start - send_lead_time)
        arrivals = []
        for receiver in receivers:
            ciphertext = scheme.encrypt(
                problem_set,
                receiver.keypair.public,
                keypair.public,
                start_label,
                rng,
            )
            arrivals.append(
                problems.send(ciphertext, receiver.receive_ciphertext)
            )

        # The naive organizer holds the plaintext until the start.
        await pump.released.wait()
        naive_open_times: list[float] = []
        for _ in receivers:
            arrivals.append(naive.send(
                problem_set, lambda _: naive_open_times.append(loop.time())
            ))
        await _sleep_until(max(arrivals + pump.arrivals))
        return ContestResult(
            contest_start=contest_start,
            tre_open_times=[t for r in receivers for _, t in r.opened],
            naive_open_times=naive_open_times,
            update_arrivals=pump.arrivals,
            ciphertext_arrivals=[t for r in receivers for t in r.held_at],
            server_broadcasts=pump.announces,
            server_bytes=pump.bytes,
            ledger=AnonymityLedger(),
        )

    result = run_virtual(contest())
    if len(result.tre_open_times) != teams:
        raise SimulationError(
            f"{teams - len(result.tre_open_times)} teams never opened the "
            "problems (ciphertext arrived after the update?)"
        )
    return result


@dataclass
class AuctionResult:
    """Outcome of one simulated sealed-bid auction."""

    close_time: float
    bids: dict[str, int]
    winner: str
    winning_bid: int
    opened_at: float
    early_opening_attempts: int
    early_openings_succeeded: int
    early_openings_refused: int
    server_broadcasts: int
    ledger: AnonymityLedger
    bid_bytes: dict[str, int] = field(default_factory=dict)


def run_sealed_bid_auction(
    bidders: int = 8,
    seed: int = 1993,
    early_attempt_times: tuple[float, ...] = (200.0, 400.0),
) -> AuctionResult:
    """Simulate a sealed-bid government tender (paper §1) on toy64.

    Each bidder encrypts its bid to the auctioneer with release time =
    the close (600 s of loop time).  The auctioneer holds all
    ciphertexts and *tries* to open them early (modelling the
    corrupt-agent threat the paper describes): at each of
    ``early_attempt_times`` it sends the node a
    ``GET_UPDATE`` for the close label per sealed bid, and before the
    close every one is refused.  At the close the time server
    broadcasts one update and all bids open.
    """
    if bidders < 2:
        raise SimulationError("an auction needs at least two bidders")
    rng = random.Random(seed)
    group = PairingGroup("toy64")
    close_time = 600.0

    channel = BroadcastChannel(NormalJitterLatency(0.05, 0.01), rng)
    keypair = ServerKeyPair.generate(group, rng)
    node = TimeServerNode(
        group, keypair, epoch_interval=close_time, prefix="auction"
    )
    # An epoch label, not a free-form one: the node signs free-form
    # labels on demand, so only the release policy keeps this sealed.
    close_label = node.label_for(1)
    scheme = TimedReleaseScheme(group)
    bids = {f"bidder-{i}": rng.randrange(1_000, 1_000_000) for i in range(bidders)}
    names = sorted(bids)
    transport = LocalNodeTransport(node)
    auctioneer = _Receiver(
        ResilientTimeClient(group, keypair.public, [transport], rng),
        UserKeyPair.generate(group, keypair.public, rng),
    )
    channel.subscribe(auctioneer.receive_frame)
    bid_bytes: dict[str, int] = {}
    early = {"attempts": 0, "succeeded": 0, "refused": 0}

    async def auction() -> AuctionResult:
        pump = _ReleasePump(node, channel, close_label)
        await node.start()

        async def bidding():
            for index, name in enumerate(names):
                await _sleep_until(10.0 + index)
                ciphertext = scheme.encrypt(
                    str(bids[name]).encode(),
                    auctioneer.keypair.public,
                    keypair.public,
                    close_label,
                    rng,
                )
                auctioneer.receive_ciphertext(ciphertext)
                bid_bytes[name] = ciphertext.size_bytes(group)

        async def corrupt_agent():
            # Before the close, ask the node for the close label's
            # update once per sealed bid.  Only the release policy
            # stands in the way: each refusal is an ERR_UNAVAILABLE
            # reply, counted so the result proves every try was denied.
            probe = wire.encode_message(wire.GetUpdate(close_label))
            for when in early_attempt_times:
                await _sleep_until(when)
                for _ in auctioneer.held:
                    early["attempts"] += 1
                    raw = await asyncio.wait_for(transport.request(probe), 1.0)
                    reply = wire.decode_message(raw)
                    if isinstance(reply, wire.UpdateResponse):
                        early["succeeded"] += 1
                    elif (isinstance(reply, wire.ErrorResponse)
                            and reply.code == wire.ERR_UNAVAILABLE):
                        early["refused"] += 1

        async def closing():
            await pump.released.wait()
            await _sleep_until(max(pump.arrivals))

        await asyncio.gather(bidding(), corrupt_agent(), closing())
        opened = {
            name: int(plaintext.decode())
            for name, (plaintext, _) in zip(names, auctioneer.opened)
        }
        if opened != bids:
            raise SimulationError("recovered bids do not match submitted bids")
        winner = max(opened, key=lambda name: opened[name])
        return AuctionResult(
            close_time=close_time,
            bids=bids,
            winner=winner,
            winning_bid=bids[winner],
            opened_at=auctioneer.opened[0][1],
            early_opening_attempts=early["attempts"],
            early_openings_succeeded=early["succeeded"],
            early_openings_refused=early["refused"],
            server_broadcasts=pump.announces,
            ledger=AnonymityLedger(),
            bid_bytes=bid_bytes,
        )

    return run_virtual(auction())


@dataclass
class ThresholdBeaconResult:
    """Outcome of one simulated threshold-beacon release."""

    release_time: float
    member_count: int
    threshold: int
    offline_members: int
    share_arrivals: list[float]
    combined_at: float | None
    receivers_opened: int
    open_times: list[float]

    @property
    def time_to_update(self) -> float:
        """Delay from the release instant to the combined update."""
        if self.combined_at is None:
            raise SimulationError("the beacon never reached its threshold")
        return self.combined_at - self.release_time


def run_threshold_beacon(
    members: int = 5,
    threshold: int = 3,
    offline: int = 1,
    receivers: int = 10,
    seed: int = 2024,
) -> ThresholdBeaconResult:
    """Simulate a k-of-N beacon on toy64 releasing one epoch under
    partial failure.

    ``offline`` members never publish their share.  At the release
    instant (120 s of loop time) the others send theirs over links of
    N(0.25 s, 0.10 s) latency.  A relay collects share broadcasts,
    verifies each against the Feldman commitments, and combines as soon
    as ``threshold`` valid shares have arrived; the combined update is
    then broadcast to the receivers, who hold TRE ciphertexts sealed to
    the release label.
    """
    from repro.core.threshold import ThresholdTimeServer

    if offline > members - threshold:
        raise SimulationError(
            "too many offline members: the threshold can never be met"
        )
    rng = random.Random(seed)
    group = PairingGroup("toy64")
    release_time = 120.0

    coordinator, member_objs = ThresholdTimeServer.setup(
        group, members=members, threshold=threshold, rng=rng
    )
    label = b"beacon:release"
    scheme = TimedReleaseScheme(group)
    user_keys = [
        UserKeyPair.generate(group, coordinator.public_key, rng)
        for _ in range(receivers)
    ]
    ciphertexts = [
        scheme.encrypt(
            f"payload-{i}".encode(), key.public, coordinator.public_key,
            label, rng,
        )
        for i, key in enumerate(user_keys)
    ]

    update_channel = BroadcastChannel(NormalJitterLatency(0.05, 0.02), rng)
    shares = UnicastLink(NormalJitterLatency(0.25, 0.10), rng)
    opened: list[tuple[int, bytes]] = []
    open_times: list[float] = []
    state = {"shares": [], "combined_at": None, "arrivals": [], "updates": []}

    def make_receiver(index):
        def on_update(update):
            plaintext = scheme.decrypt(
                ciphertexts[index], user_keys[index], update,
                coordinator.public_key,
            )
            opened.append((index, plaintext))
            open_times.append(asyncio.get_running_loop().time())

        return on_update

    for index in range(receivers):
        update_channel.subscribe(make_receiver(index))

    def on_share(share):
        now = asyncio.get_running_loop().time()
        state["arrivals"].append(now)
        if state["combined_at"] is not None:
            return
        if not coordinator.verify_share(share):
            return
        state["shares"].append(share)
        if len(state["shares"]) >= threshold:
            update = coordinator.combine(state["shares"], verify=False)
            state["combined_at"] = now
            state["updates"] = update_channel.publish(update)

    async def beacon() -> None:
        await _sleep_until(release_time)
        arrivals = [
            shares.send(member.issue_update_share(label), on_share)
            for member in member_objs[offline:]
        ]
        await _sleep_until(max(arrivals))
        await _sleep_until(max(state["updates"], default=0.0))

    run_virtual(beacon())
    expected = [(i, f"payload-{i}".encode()) for i in range(receivers)]
    if sorted(opened) != expected:
        raise SimulationError("not every receiver recovered its payload")
    return ThresholdBeaconResult(
        release_time=release_time,
        member_count=members,
        threshold=threshold,
        offline_members=offline,
        share_arrivals=state["arrivals"],
        combined_at=state["combined_at"],
        receivers_opened=len(opened),
        open_times=open_times,
    )
