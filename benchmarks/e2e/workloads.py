"""The four end-to-end workloads and the harness that times them.

Every workload drives the real stack in one process: a
:class:`~repro.service.node.TimeServerNode` publishes ``I_T`` on a
:class:`~repro.service.virtualtime.VirtualTimeLoop`, a sender encrypts,
and receivers fetch or ingest ``I_T`` through a
:class:`~repro.service.client.ResilientTimeClient` (which verifies it)
and decrypt.  Each role has its own :class:`PairingGroup`, so no
group-level cache crosses what would be a machine boundary; keys cross
roles as bytes and are decoded by the receiving role.

Load model: a closed loop with one request in flight.  Virtual time
costs no wall time, so the numbers are work per wall second at the
stated input sizes.  A run sets up ``SETUPS`` times (the median is
``setup_s``; the last set-up is used), then runs *passes* until
``seconds`` have elapsed.  A pass is a fresh loop, a fresh node and
fresh clients; receiver groups drop their caches at the start of each
pass, so every pass does the same work.  The first pass always runs to
the end: ``transcript_sha256`` hashes every ciphertext, wire frame,
plaintext and virtual release delay of that pass.

All inputs derive from the seed: keys, messages and fault schedules.
Release epochs follow a fixed layout, so every seed asks for the same
amount of work.
"""

from __future__ import annotations

import asyncio
import hashlib
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.broadcast import BroadcastTimedReleaseScheme
from repro.core.hybrid_tre import HybridTimedReleaseScheme, HybridTRECiphertext
from repro.core.keys import ServerKeyPair, ServerPublicKey, UserKeyPair, UserPublicKey
from repro.core.timeserver import epoch_label
from repro.core.tre import TimedReleaseScheme
from repro.crypto.rng import seeded_rng
from repro.pairing.api import PairingGroup
from repro.service import (
    FaultPlan,
    FaultyChannel,
    FaultyTransport,
    LocalNodeTransport,
    ResilientTimeClient,
    TimeServerNode,
    run_virtual,
)

from benchmarks.e2e.spans import ROOT, SETUP_SPANS, SPAN_SET, Tracer

SETUPS = 3
SETUP_REQUEST = -1

# Host-speed calibration.  On a shared host the speed of identical work
# drifts by 5-50% over minutes, which no run length averages away.  A
# fixed kernel is therefore timed right before and after every request
# and set-up.  Each timing is scaled by KERNEL_REFERENCE_S over the
# kernel's mean time there: it reads as the time on a host where the
# kernel takes exactly 2 ms.  The kernel is pure Python big-int and
# SHA-256 work, the same interpreter work the library does, and calls no
# library code, so no change to the library can move it.  Changing it
# rescales every timing: keep it fixed.
KERNEL_REFERENCE_S = 0.002
_KERNEL_MODULUS = (1 << 512) - 569
_KERNEL_BASE = 0x1234567890ABCDEF


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    x = y = pow(_KERNEL_BASE, 30, _KERNEL_MODULUS)
    for _ in range(1500):
        y = y * x % _KERNEL_MODULUS
    digest = b"kernel"
    for _ in range(200):
        digest = hashlib.sha256(digest).digest()
    return time.perf_counter() - start


def _speed_factor(before: float, after: float) -> float:
    return KERNEL_REFERENCE_S / ((before + after) / 2)

# Default input sizes (ss512).  Tests pass smaller ones.
SIZES: dict[str, dict[str, int]] = {
    "cold_single": {"receivers": 16, "message_bytes": 1024},
    "warm_batch": {"receivers": 8, "epochs": 8, "per_job": 16, "key_bytes": 32},
    "broadcast_bulk": {"receivers": 8, "epochs": 4, "payload_bytes": 1 << 20},
    "outage_catchup": {
        "epochs": 8, "listeners": 2, "joiners": 4, "per_client": 2,
        "message_bytes": 1024,
    },
}


class Transcript:
    """SHA-256 over tagged, length-framed byte strings."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, tag: bytes, data: bytes) -> None:
        self._hash.update(bytes([len(tag)]) + tag + len(data).to_bytes(8, "big"))
        self._hash.update(data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class Request(NamedTuple):
    rid: int
    kind: str
    traced: bool
    seconds: float  # reference-speed
    wall: float  # wall clock
    plaintexts: int


class Measure:
    """What one run observes; requests alternate traced and untraced."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.transcript = Transcript()
        self.encrypt_ms: list[float] = []
        self.open_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.plaintexts = 0
        self.wire_bytes = 0
        self.authenc_bytes = 0
        self.clients: list[ResilientTimeClient] = []
        self.requests: list[Request] = []
        # request id -> speed factor (wall seconds x factor = reference seconds)
        self.factors: dict[int, float] = {}
        self.raw: dict[str, list[float]] = {"encrypt_ms": [], "open_ms": []}
        self.kernel_ms: list[float] = []
        self.extra: dict[str, list[float]] = {}
        self._kinds: dict[str, int] = {}

    @contextmanager
    def request(self, kind: str):
        seen = self._kinds.get(kind, 0)
        self._kinds[kind] = seen + 1
        traced = self.tracer is not None and seen % 2 == 0
        rid = len(self.requests) + 1
        recovered = self.plaintexts
        marks = {name: len(getattr(self, name)) for name in self.raw}
        before = kernel_seconds()
        if traced:
            self.tracer.enabled = True
            self.tracer.begin_request(rid)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.end_request()
                self.tracer.enabled = False
            after = kernel_seconds()
            self.kernel_ms += [before * 1000.0, after * 1000.0]
            factor = self.factors[rid] = _speed_factor(before, after)
            for name, mark in marks.items():
                samples = getattr(self, name)
                self.raw[name] += samples[mark:]
                samples[mark:] = [value * factor for value in samples[mark:]]
            self.requests.append(Request(
                rid, kind, traced, elapsed * factor, elapsed, self.plaintexts - recovered
            ))

    def check(self, got: bytes | None, expected: bytes) -> None:
        self.attempted += 1
        if got == expected:
            self.plaintexts += 1
            self.transcript.add(b"pt", got)
        else:
            self.failed += 1
            self.transcript.add(b"bad", b"")

    def note(self, key: str, value: float) -> None:
        self.extra.setdefault(key, []).append(value)


class RecordingTransport:
    """Client-side view of the wire: hashes and counts every frame."""

    def __init__(self, inner, measure: Measure):
        self.inner = inner
        self.measure = measure

    async def request(self, payload: bytes) -> bytes:
        response = await self.inner.request(payload)
        self.measure.transcript.add(b"req", payload)
        self.measure.transcript.add(b"resp", response)
        self.measure.wire_bytes += len(payload) + len(response)
        return response


@dataclass
class Receiver:
    group: PairingGroup
    server_public: ServerPublicKey
    keypair: UserKeyPair
    scheme: object
    sender_view: UserPublicKey


def _ms(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


class Workload:
    """Roles shared by every workload: node, sender, receivers."""

    name = ""
    interval = 1.0  # virtual seconds per epoch

    def __init__(self, seed: int, params: str, backend: str | None, sizes: dict):
        self.seed = seed
        self.params = params
        self.backend = backend
        self.sizes = sizes
        self.groups: list[PairingGroup] = []
        self.setup_encrypt_ms: list[float] = []
        self.rng = self._rng("inputs")
        self.node_group = self._group()
        self.server_keypair = ServerKeyPair.generate(self.node_group, self.rng)
        self._server_bytes = self.server_keypair.public.to_bytes(self.node_group)
        self.sender_group = self._group()
        self.server_public = ServerPublicKey.from_bytes(
            self.sender_group, self._server_bytes
        )

    def _rng(self, tag: str):
        return seeded_rng(":".join(("e2e", self.name, str(self.seed), tag)))

    def _group(self) -> PairingGroup:
        group = PairingGroup(self.params, backend=self.backend)
        self.groups.append(group)
        return group

    def _receiver(self, scheme_cls) -> Receiver:
        group = self._group()
        server_public = ServerPublicKey.from_bytes(group, self._server_bytes)
        keypair = UserKeyPair.generate(group, server_public, self.rng)
        sender_view = UserPublicKey.from_bytes(
            self.sender_group, keypair.public.to_bytes(group)
        )
        return Receiver(group, server_public, keypair, scheme_cls(group), sender_view)

    async def _start_node(self) -> TimeServerNode:
        node = TimeServerNode(
            self.node_group, self.server_keypair, epoch_interval=self.interval
        )
        await node.start()
        return node

    async def _until_released(self, epoch: int) -> None:
        due = (epoch + 0.5) * self.interval
        await asyncio.sleep(max(0.0, due - asyncio.get_running_loop().time()))

    def _client(self, rx: Receiver, transport, measure: Measure, tag: str):
        client = ResilientTimeClient(
            rx.group, rx.server_public, [RecordingTransport(transport, measure)],
            self._rng(tag),
        )
        measure.clients.append(client)
        return client

    def start_pass(self) -> None:
        for group in self.groups:
            if group is not self.sender_group:
                group.clear_precomputations()

    async def run_pass(self, index: int, measure: Measure, stop) -> None:
        raise NotImplementedError


class ColdSingle(Workload):
    """One 1 KiB hybrid message per fresh (receiver, T); nothing shared."""

    name = "cold_single"

    def __init__(self, *args):
        super().__init__(*args)
        self.scheme = HybridTimedReleaseScheme(self.sender_group)
        self.receivers = [
            self._receiver(HybridTimedReleaseScheme)
            for _ in range(self.sizes["receivers"])
        ]

    async def run_pass(self, index, measure, stop):
        node = await self._start_node()
        size = self.sizes["message_bytes"]
        for m, rx in enumerate(self.receivers):
            if stop():
                break
            label = epoch_label(m + 1)
            message = self.rng.randbytes(size)
            with measure.request(self.name):
                start = time.perf_counter()
                ciphertext = self.scheme.encrypt(
                    message, rx.sender_view, self.server_public, label, self.rng
                )
                measure.encrypt_ms.append(_ms(start))
                blob = ciphertext.to_bytes(self.sender_group)
                measure.transcript.add(b"ct", blob)
                await self._until_released(m + 1)
                client = self._client(rx, LocalNodeTransport(node), measure, f"{index}:{m}")
                start = time.perf_counter()
                received = HybridTRECiphertext.from_bytes(rx.group, blob)
                update = await client.get_update(label)
                plaintext = rx.scheme.decrypt(received, rx.keypair, update)
                measure.open_ms.append(_ms(start))
                measure.check(plaintext, message)
                await client.close()
            measure.authenc_bytes += 2 * size
        node.stop()


class WarmBatch(Workload):
    """16 session keys per (receiver, T) on the sender's warmed tables."""

    name = "warm_batch"

    def __init__(self, *args):
        super().__init__(*args)
        self.scheme = TimedReleaseScheme(self.sender_group)
        self.receivers = [
            self._receiver(TimedReleaseScheme) for _ in range(self.sizes["receivers"])
        ]
        labels = [epoch_label(e) for e in range(1, self.sizes["epochs"] + 1)]
        for rx in self.receivers:
            rx.sender_view.ensure_well_formed(self.sender_group, self.server_public)
            self.scheme.precompute_sender(
                rx.sender_view, self.server_public, time_labels=labels
            )

    async def run_pass(self, index, measure, stop):
        node = await self._start_node()
        clients = [
            self._client(rx, LocalNodeTransport(node), measure, f"{index}:{i}")
            for i, rx in enumerate(self.receivers)
        ]
        per_job, key_bytes = self.sizes["per_job"], self.sizes["key_bytes"]
        for epoch in range(1, self.sizes["epochs"] + 1):
            label = epoch_label(epoch)
            for rx, client in zip(self.receivers, clients):
                if stop():
                    break
                keys = [self.rng.randbytes(key_bytes) for _ in range(per_job)]
                with measure.request(self.name):
                    ciphertexts = []
                    for key in keys:
                        start = time.perf_counter()
                        ciphertexts.append(self.scheme.encrypt(
                            key, rx.sender_view, self.server_public, label,
                            self.rng, verify_receiver_key=False,
                        ))
                        measure.encrypt_ms.append(_ms(start))
                    for ciphertext in ciphertexts:
                        measure.transcript.add(b"ct", ciphertext.to_bytes(self.sender_group))
                    await self._until_released(epoch)
                    start = time.perf_counter()
                    update = await client.get_update(label)
                    plaintexts = rx.scheme.decrypt_batch(ciphertexts, rx.keypair, update)
                    measure.open_ms.append(_ms(start))
                    for plaintext, key in zip(plaintexts, keys):
                        measure.check(plaintext, key)
        for client in clients:
            await client.close()
        node.stop()


class BroadcastBulk(Workload):
    """One cold 1 MiB broadcast per epoch to every receiver, pushed I_T."""

    name = "broadcast_bulk"

    def __init__(self, *args):
        super().__init__(*args)
        self.scheme = BroadcastTimedReleaseScheme(self.sender_group)
        self.receivers = [
            self._receiver(BroadcastTimedReleaseScheme)
            for _ in range(self.sizes["receivers"])
        ]
        for rx in self.receivers:
            rx.sender_view.ensure_well_formed(self.sender_group, self.server_public)

    async def run_pass(self, index, measure, stop):
        node = await self._start_node()
        queues = [node.subscribe() for _ in self.receivers]
        clients = [
            self._client(rx, LocalNodeTransport(node), measure, f"{index}:{i}")
            for i, rx in enumerate(self.receivers)
        ]
        views = [rx.sender_view for rx in self.receivers]
        size = self.sizes["payload_bytes"]
        for epoch in range(1, self.sizes["epochs"] + 1):
            if stop():
                break
            label = epoch_label(epoch)
            payload = self.rng.randbytes(size)
            with measure.request(self.name):
                start = time.perf_counter()
                ciphertext = self.scheme.encrypt_broadcast(
                    payload, views, self.server_public, label, self.rng,
                    verify_receiver_keys=False,
                )
                measure.encrypt_ms.append(_ms(start))
                measure.transcript.add(b"ct", ciphertext.to_bytes(self.sender_group))
                await self._until_released(epoch)
                for slot, (rx, client, queue) in enumerate(
                    zip(self.receivers, clients, queues)
                ):
                    frame = queue.get_nowait()
                    measure.transcript.add(b"push", frame)
                    measure.wire_bytes += len(frame)
                    start = time.perf_counter()
                    update = client.ingest_frame(frame)
                    plaintext = None
                    if update is not None and update.time_label == label:
                        plaintext = rx.scheme.decrypt_broadcast(
                            ciphertext, slot, rx.keypair, update
                        )
                    measure.open_ms.append(_ms(start))
                    measure.check(plaintext, payload)
            # payload sealed once and opened per receiver; one 32 B key per header
            measure.authenc_bytes += (1 + len(views)) * size + 2 * len(views) * 32
        for client in clients:
            await client.close()
        node.stop()


class OutageCatchup(Workload):
    """Receivers and operator under faults: no sender work while measured.

    Each pass is one outage story on one-minute epochs: listeners park
    ciphertexts behind a faulty link and announce channel, the node
    crashes mid-way and restarts from its snapshot, and after the last
    epoch late joiners catch up over the whole archive and decrypt.
    The ciphertexts are made during set-up; their encryption times are
    this workload's ``encrypt_ms_p50``.
    """

    name = "outage_catchup"
    interval = 60.0

    def __init__(self, *args):
        super().__init__(*args)
        sizes = self.sizes
        self.listeners = [
            self._receiver(HybridTimedReleaseScheme) for _ in range(sizes["listeners"])
        ]
        self.joiners = [
            self._receiver(HybridTimedReleaseScheme) for _ in range(sizes["joiners"])
        ]
        self.scheme = HybridTimedReleaseScheme(self.sender_group)
        receivers = self.listeners + self.joiners
        mail = [self._post(rx, slot) for slot, rx in enumerate(receivers)]
        self.listener_mail = mail[: len(self.listeners)]
        self.joiner_mail = mail[len(self.listeners):]

    def _post(self, rx: Receiver, slot: int) -> list[tuple[int, bytes, bytes]]:
        """Cold-encrypt ``per_client`` messages to ``rx``, the ``slot``-th receiver.

        Returns (epoch, ciphertext bytes, message) triples.  Epochs are
        dealt round-robin over 1..epochs-1 rather than drawn from the
        seed: which epochs a listener waits on changes how much it
        verifies, and that should not vary from seed to seed.
        """
        sizes = self.sizes
        per_client, span = sizes["per_client"], sizes["epochs"] - 1
        mail = []
        for j in range(per_client):
            epoch = 1 + (slot * per_client + j) % span
            message = self.rng.randbytes(sizes["message_bytes"])
            start = time.perf_counter()
            ciphertext = self.scheme.encrypt(
                message, rx.sender_view, self.server_public, epoch_label(epoch), self.rng
            )
            self.setup_encrypt_ms.append(_ms(start))
            mail.append((epoch, ciphertext.to_bytes(self.sender_group), message))
        return mail

    async def run_pass(self, index, measure, stop):
        loop = asyncio.get_running_loop()
        sizes = self.sizes
        node = await self._start_node()
        plan = FaultPlan.from_seed(
            self.seed * 1_000_003 + index, drop=0.1, delay=0.2, corrupt=0.1
        )
        link = FaultyTransport(LocalNodeTransport(node), plan)
        tee = node.subscribe()
        delays: list[float] = []
        with measure.request("live"):
            pumps, listeners, expected = [], [], []
            for i, (rx, mail) in enumerate(zip(self.listeners, self.listener_mail)):
                client = self._client(rx, link, measure, f"{index}:listen:{i}")
                channel = FaultyChannel(node.subscribe(), plan)
                pumps.append(loop.create_task(channel.pump()))
                client.start_listening(channel.queue)
                for epoch, blob, message in mail:
                    ciphertext = HybridTRECiphertext.from_bytes(rx.group, blob)
                    task = client.park(rx.scheme, ciphertext, rx.keypair)
                    release = epoch * self.interval
                    task.add_done_callback(
                        lambda _t, release=release: delays.append(loop.time() - release)
                    )
                    expected.append(message)
                listeners.append(client)
            await asyncio.sleep(4.5 * self.interval)
            snapshot = node.snapshot()
            node.crash()
            await asyncio.sleep(1.25 * self.interval)
            start = time.perf_counter()
            await node.restart(snapshot)
            measure.note("recovery_ms", _ms(start))
            plaintexts = []
            for client in listeners:
                plaintexts.extend(await client.drain())
                await client.close()
            for pump in pumps:
                pump.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)
            for plaintext, message in zip(plaintexts, expected):
                measure.check(plaintext, message)
            measure.authenc_bytes += sum(len(m) for m in expected)
        for delay in delays:
            measure.transcript.add(b"delay", repr(delay).encode())
        if index == 0:
            measure.extra["release_delay_virtual_s"] = sorted(delays)
        await asyncio.sleep(
            max(0.0, (sizes["epochs"] - 0.5) * self.interval - loop.time())
        )
        for j, (rx, mail) in enumerate(zip(self.joiners, self.joiner_mail)):
            if stop():
                break
            with measure.request("joiner"):
                client = self._client(rx, link, measure, f"{index}:join:{j}")
                start = time.perf_counter()
                accepted = await client.catch_up()
                caught_up_ms = _ms(start)
                for epoch, blob, message in mail:
                    ciphertext = HybridTRECiphertext.from_bytes(rx.group, blob)
                    update = await client.get_update(epoch_label(epoch))
                    plaintext = rx.scheme.decrypt(ciphertext, rx.keypair, update)
                    measure.check(plaintext, message)
                    measure.authenc_bytes += len(message)
                measure.open_ms.append(_ms(start))
                measure.note("catchup_updates_per_s", len(accepted) / (caught_up_ms / 1000.0))
                await client.close()
        while not tee.empty():
            measure.transcript.add(b"push", tee.get_nowait())
        node.stop()


WORKLOADS = {
    cls.name: cls for cls in (ColdSingle, WarmBatch, BroadcastBulk, OutageCatchup)
}

# ---------------------------------------------------------------------------
# Harness.
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_workload(
    name: str,
    seed: int = 1,
    seconds: float = 0.0,
    trace: bool = False,
    params: str = "ss512",
    backend: str | None = None,
    sizes: dict | None = None,
) -> dict:
    """Set up, run passes for ``seconds`` (at least one), summarize.

    Returns the result dict: ``metrics`` holds the end-to-end metrics
    (or the per-layer ones when ``trace``) in reference-speed time,
    ``samples`` the timings behind them, ``raw_metrics`` the wall-clock
    medians, ``transcript_sha256`` the first pass's digest.
    """
    cls = WORKLOADS[name]
    sizes = {**SIZES[name], **(sizes or {})}
    tracer = Tracer().install() if trace else None
    try:
        measure = Measure(tracer)
        setup_s: list[float] = []
        raw_setup_s: list[float] = []
        for attempt in range(SETUPS):
            last = attempt == SETUPS - 1
            before = kernel_seconds()
            if tracer is not None and last:
                tracer.enabled = True
                tracer.begin_request(SETUP_REQUEST)
            start = time.perf_counter()
            workload = cls(seed, params, backend, sizes)
            elapsed = time.perf_counter() - start
            if tracer is not None and last:
                tracer.end_request()
                tracer.enabled = False
            factor = _speed_factor(before, kernel_seconds())
            measure.factors[SETUP_REQUEST] = factor
            raw_setup_s.append(elapsed)
            setup_s.append(elapsed * factor)
            measure.raw["encrypt_ms"] += workload.setup_encrypt_ms
            measure.encrypt_ms += [ms * factor for ms in workload.setup_encrypt_ms]
        for group in workload.groups:
            group.counters.reset()
        start = time.perf_counter()
        deadline = start + seconds
        passes, digest = 0, ""
        while passes == 0 or time.perf_counter() < deadline:
            workload.start_pass()
            measure.transcript = Transcript()
            if passes == 0:
                stop = lambda: False  # noqa: E731 - the first pass always completes
            else:
                stop = lambda: time.perf_counter() >= deadline  # noqa: E731
            run_virtual(workload.run_pass(passes, measure, stop))
            if passes == 0:
                digest = measure.transcript.hexdigest()
            passes += 1
        measured_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "workload": name,
        "seed": seed,
        "backend": workload.sender_group.backend_name,
        "passes": passes,
        "measured_s": measured_s,
        "requests": len(measure.requests),
        "attempted": measure.attempted,
        "failed": measure.failed,
        "transcript_sha256": digest,
        "samples": {
            "setup_s": setup_s,
            "encrypt_ms": measure.encrypt_ms,
            "open_ms": measure.open_ms,
            "request_s": {
                kind: [request.seconds for request in group]
                for kind, group in _by_kind(measure.requests).items()
            },
            "kernel_ms": measure.kernel_ms,
        },
        "raw_metrics": {
            "setup_s": _median(raw_setup_s),
            "encrypt_ms_p50": _median(measure.raw["encrypt_ms"]),
            "open_ms_p50": _median(measure.raw["open_ms"]),
        },
        "extra": measure.extra,
    }
    if tracer is None:
        result["metrics"] = {
            "setup_s": (_median(setup_s), "s"),
            "encrypt_ms_p50": (_median(measure.encrypt_ms), "ms"),
            "open_ms_p50": (_median(measure.open_ms), "ms"),
            "msgs_per_s": (_throughput(measure.requests), "msg/s"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
            ),
        }
    else:
        result["metrics"] = _layer_metrics(tracer, measure, workload)
        result["layers"] = _layer_table(tracer, measure)
        result["tracer"] = tracer
    return result


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _by_kind(requests: list[Request]) -> dict[str, list[Request]]:
    kinds: dict[str, list[Request]] = {}
    for request in requests:
        kinds.setdefault(request.kind, []).append(request)
    return kinds


def _throughput(requests) -> float:
    """Plaintexts per second of request time, each kind at its median.

    A median per request kind keeps a transient stall on a shared
    machine from moving the figure; without stalls it equals plaintexts
    over total request time.
    """
    plaintexts = seconds = 0.0
    for group in _by_kind(requests).values():
        plaintexts += sum(request.plaintexts for request in group)
        seconds += len(group) * statistics.median(r.seconds for r in group)
    return plaintexts / seconds if seconds else 0.0


def _overhead_pct(requests: list[Request]) -> float:
    """Median wall-time ratio of each traced request to the untraced one
    of the same kind that follows it; host drift cancels within a pair."""
    ratios = []
    for group in _by_kind(requests).values():
        for on, off in zip(group[0::2], group[1::2]):
            ratios.append(on.wall / off.wall)
    return 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0


def _layer_metrics(tracer: Tracer, measure: Measure, workload: Workload) -> dict:
    traced = [request.rid for request in measure.requests if request.traced]
    per_req = max(1, len(traced))
    requests = max(1, len(measure.requests))
    totals = tracer.totals(traced, measure.factors)
    setup = tracer.totals([SETUP_REQUEST], measure.factors)
    metrics: dict[str, tuple[float, str]] = {}
    for span in SPAN_SET:
        calls, self_ms = (setup if span in SETUP_SPANS else totals).get(span, (0, 0.0))
        scale = 1 if span in SETUP_SPANS else per_req
        metrics[f"{span}.calls"] = (calls / scale, "calls/req")
        metrics[f"{span}.self_ms"] = (self_ms / scale, "ms/req")
    counts: dict[str, int] = {}
    for group in workload.groups:
        for key, value in group.counters.snapshot().items():
            counts[key] = counts.get(key, 0) + value
    metrics["pairing.api.fixed_base_hit_ratio"] = (
        _ratio(counts.get("fixed_base_mult", 0), counts.get("scalar_mult", 0)), "ratio")
    metrics["pairing.api.lines_hit_ratio"] = (
        _ratio(counts.get("pairing_precomp", 0), counts.get("miller_loop", 0)), "ratio")
    metrics["pairing.api.gt_table_hit_ratio"] = (
        _ratio(counts.get("gt_fixed_base", 0), counts.get("gt_exp", 0)), "ratio")
    stats: dict[str, int] = {}
    for client in measure.clients:
        for key, value in client.stats().items():
            stats[key] = stats.get(key, 0) + value
    for key in ("attempts", "retries", "rejected", "breaker_trips"):
        metrics[f"service.client.{key}"] = (stats.get(key, 0) / requests, "count/req")
    accepted = stats.get("cached", 0)
    metrics["service.client.accepted_ratio"] = (
        _ratio(accepted, accepted + stats.get("rejected", 0)), "ratio")
    metrics["service.wire.bytes"] = (measure.wire_bytes / requests, "B/req")
    metrics["crypto.authenc.bytes"] = (measure.authenc_bytes / requests, "B/req")
    metrics["trace.unattributed_ms"] = (totals.get(ROOT, (0, 0.0))[1] / per_req, "ms/req")
    metrics["trace.overhead_pct"] = (_overhead_pct(measure.requests), "%")
    metrics["trace.requests"] = (len(traced), "count")
    metrics["host.kernel_ms"] = (_median(measure.kernel_ms), "ms")
    return metrics


def _layer_table(tracer: Tracer, measure: Measure) -> list[dict]:
    """Rows of (phase, span, calls, self ms) for the human-readable table."""
    traced = [request.rid for request in measure.requests if request.traced]
    rows = []
    for phase, ids in (("setup", [SETUP_REQUEST]), ("measured", traced)):
        totals = tracer.totals(ids, measure.factors)
        whole = sum(self_ms for _, self_ms in totals.values()) or 1.0
        for span, (calls, self_ms) in sorted(
            totals.items(), key=lambda item: -item[1][1]
        ):
            rows.append({
                "phase": phase, "span": span, "calls": calls,
                "self_ms": round(self_ms, 3), "share_pct": round(100 * self_ms / whole, 2),
            })
    return rows
