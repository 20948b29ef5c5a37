"""Robustness: every deserializer rejects corrupted input *cleanly*.

A wire-facing library must never crash with an unrelated exception (or
silently accept) on malformed bytes.  These tests fuzz every
``from_bytes`` with truncations, extensions, bit flips, random blobs and
well-framed blobs with a field added, dropped or cut short, and require every failure to be a :class:`repro.errors.ReproError`
subclass — and every successful parse to re-serialize to the same bytes
or decrypt to the wrong plaintext, never to crash elsewhere.  The
classes fuzzed are discovered: every class in ``repro`` that carries a
:func:`repro.encoding.codec` declaration must have a sample below.
"""

import importlib
import inspect
import pkgutil
import random

import pytest

import repro
from repro.core.broadcast import BroadcastCiphertext
from repro.core.fujisaki_okamoto import FOTRECiphertext
from repro.core.hybrid_tre import HybridTRECiphertext
from repro.core.idtre import IDTRECiphertext
from repro.core.keys import ServerPublicKey, UserPublicKey
from repro.core.multiserver import MultiServerCiphertext
from repro.core.policylock import (
    ConjunctionCiphertext,
    DisjunctionCiphertext,
    ThresholdPolicyCiphertext,
)
from repro.core.react import ReactTRECiphertext
from repro.core.resilient import (
    NodeKey,
    ResilientCiphertext,
    ResilientTimeServer,
    ResilientUpdate,
)
from repro.core.threshold import ThresholdTimeServer, UpdateShare
from repro.core.timeserver import PassiveTimeServer, TimeBoundKeyUpdate
from repro.core.tre import TRECiphertext
from repro.encoding import pack_chunks, unpack_chunks
from repro.errors import ReproError
from repro.service import wire

FUZZ_ROUNDS = 40


def _mutations(blob: bytes, rng: random.Random):
    yield b""
    yield blob[:1]
    yield blob[:-1]
    yield blob + b"\x00"
    try:
        chunks = unpack_chunks(blob)
    except ReproError:
        chunks = []
    if chunks:  # well-framed: one field too many, one missing, one cut short
        yield pack_chunks(*chunks, b"")
        for i in range(len(chunks)):
            yield pack_chunks(*chunks[:i], *chunks[i + 1:])
            yield pack_chunks(*chunks[:i], chunks[i][:-1], *chunks[i + 1:])
    for _ in range(FUZZ_ROUNDS):
        kind = rng.randrange(3)
        if kind == 0 and blob:  # bit flip
            index = rng.randrange(len(blob))
            mutated = bytearray(blob)
            mutated[index] ^= 1 << rng.randrange(8)
            yield bytes(mutated)
        elif kind == 1:  # truncation
            yield blob[: rng.randrange(len(blob) + 1)]
        else:  # random garbage of similar size
            yield rng.randbytes(len(blob) or 8)


def _assert_clean(parser, blob, reencode=None):
    """Parsing must either raise a ReproError or round-trip coherently."""
    rng = random.Random(0xF422)
    for mutated in _mutations(blob, rng):
        try:
            parsed = parser(mutated)
        except ReproError:
            continue
        if reencode is not None:
            assert reencode(parsed) == mutated


def _codec_classes() -> list[type]:
    """Every class in ``repro`` that carries a codec declaration."""
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        found.extend(
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
            and "__wire__" in vars(obj)
        )
    return sorted(found, key=lambda cls: cls.__name__)


CODEC_CLASSES = _codec_classes()

# One sample per codec class: (group, server, user, rng) -> instance.
SAMPLES = {
    TRECiphertext: lambda g, s, u, r: TRECiphertext(
        g.random_point(r), b"masked", b"t"
    ),
    HybridTRECiphertext: lambda g, s, u, r: HybridTRECiphertext(
        g.random_point(r), b"sealed payload", b"t"
    ),
    FOTRECiphertext: lambda g, s, u, r: FOTRECiphertext(
        g.random_point(r), b"sigma", b"message", b"t"
    ),
    ReactTRECiphertext: lambda g, s, u, r: ReactTRECiphertext(
        TRECiphertext(g.random_point(r), b"r", b"t"), b"c2", b"c3"
    ),
    IDTRECiphertext: lambda g, s, u, r: IDTRECiphertext(
        g.random_point(r), b"masked", b"t"
    ),
    MultiServerCiphertext: lambda g, s, u, r: MultiServerCiphertext(
        (g.random_point(r), g.random_point(r)), b"masked", b"t"
    ),
    BroadcastCiphertext: lambda g, s, u, r: BroadcastCiphertext(
        g.random_point(r), b"t-bcast", (b"h1", b"h2", b"h3"), b"sealed"
    ),
    ServerPublicKey: lambda g, s, u, r: s.public_key,
    UserPublicKey: lambda g, s, u, r: u.public,
    TimeBoundKeyUpdate: lambda g, s, u, r: s.publish_update(b"fuzz-update"),
    UpdateShare: lambda g, s, u, r: (
        ThresholdTimeServer.setup(g, 3, 2, r)[1][0].issue_update_share(b"t")
    ),
    NodeKey: lambda g, s, u, r: NodeKey(
        (0, 1, 1), g.random_point(r), (g.random_point(r), g.random_point(r))
    ),
    ResilientUpdate: lambda g, s, u, r: (
        ResilientTimeServer(g, 4, r).publish_update(9)
    ),
    ResilientCiphertext: lambda g, s, u, r: ResilientCiphertext(
        9, 4, g.random_point(r), (g.random_point(r),) * 3, b"masked"
    ),
    ConjunctionCiphertext: lambda g, s, u, r: ConjunctionCiphertext(
        g.random_point(r), b"masked", (b"c1", b"c2")
    ),
    DisjunctionCiphertext: lambda g, s, u, r: DisjunctionCiphertext(
        (g.random_point(r), g.random_point(r)), b"sealed", (b"c1", b"c2")
    ),
    ThresholdPolicyCiphertext: lambda g, s, u, r: ThresholdPolicyCiphertext(
        2, (g.random_point(r),) * 3, b"sealed", (b"c1", b"c2", b"c3")
    ),
    wire.GetUpdate: lambda g, s, u, r: wire.GetUpdate(b"fuzz-wire"),
    wire.GetArchive: lambda g, s, u, r: wire.GetArchive(b"after"),
    wire.Health: lambda g, s, u, r: wire.Health(),
    wire.Announce: lambda g, s, u, r: wire.Announce(b"update-bytes"),
    wire.UpdateResponse: lambda g, s, u, r: wire.UpdateResponse(b"update-bytes"),
    wire.ArchiveResponse: lambda g, s, u, r: wire.ArchiveResponse((b"a", b"bc")),
    wire.ErrorResponse: lambda g, s, u, r: wire.ErrorResponse(
        wire.ERR_UNAVAILABLE, b"detail"
    ),
}


def test_every_codec_class_has_a_sample():
    assert [cls for cls in CODEC_CLASSES if cls not in SAMPLES] == []
    assert set(SAMPLES) <= set(CODEC_CLASSES)


class TestWireRobustness:
    @pytest.mark.parametrize(
        "cls", [cls for cls in CODEC_CLASSES if cls in SAMPLES],
        ids=lambda cls: cls.__name__,
    )
    def test_codec_fuzz(self, cls, group, server, user, rng):
        sample = SAMPLES[cls](group, server, user, rng)
        blob = sample.to_bytes(group)
        assert cls.from_bytes(group, blob) == sample
        assert sample.size_bytes(group) == len(blob)
        _assert_clean(
            lambda b: cls.from_bytes(group, b),
            blob,
            reencode=lambda parsed: parsed.to_bytes(group),
        )

    def test_service_wire_frames(self, group, server):
        update_bytes = server.publish_update(b"fuzz-wire").to_bytes(group)
        frames = [
            wire.encode_message(wire.GetUpdate(b"fuzz-wire")),
            wire.encode_message(wire.GetArchive(b"fuzz")),
            wire.encode_message(wire.Health()),
            wire.encode_message(wire.Announce(update_bytes)),
            wire.encode_message(wire.UpdateResponse(update_bytes)),
            wire.encode_message(wire.ArchiveResponse((update_bytes,))),
            wire.encode_message(
                wire.HealthResponse(((b"status", b"ok"),))
            ),
            wire.encode_message(
                wire.ErrorResponse(wire.ERR_UNAVAILABLE, b"detail")
            ),
        ]
        for blob in frames:
            _assert_clean(
                wire.decode_message,
                blob,
                reencode=wire.encode_message,
            )

    def test_archive_snapshot(self, group, rng):
        """Crash-recovery snapshots are wire input too."""
        server = PassiveTimeServer(group, rng=rng)
        for epoch in range(3):
            server.publish_update(b"snap-%d" % epoch)
        blob = server.snapshot_archive()
        fresh = PassiveTimeServer(group, keypair=server._keypair)
        fuzz_rng = random.Random(0xF423)
        for mutated in _mutations(blob, fuzz_rng):
            try:
                fresh.restore_archive(mutated)
            except ReproError:
                continue
        # Whatever was (validly) restored must still self-authenticate.
        for label in fresh.archive_labels():
            assert fresh.lookup(label).verify(group, server.public_key)


class TestNoSilentAccept:
    """A mutant that *parses* must never *verify* (unless unchanged)."""

    def test_bitflipped_update_never_authenticates(self, group, server):
        update = server.publish_update(b"no-silent-accept")
        blob = update.to_bytes(group)
        rng = random.Random(0xACCE97)
        for _ in range(60):
            index = rng.randrange(len(blob))
            mutated = bytearray(blob)
            mutated[index] ^= 1 << rng.randrange(8)
            try:
                parsed = TimeBoundKeyUpdate.from_bytes(group, bytes(mutated))
            except ReproError:
                continue
            assert not parsed.verify(group, server.public_key)


class TestRoundTrips:
    """The happy path for the newly-serialized types."""

    def test_update_share_roundtrip(self, group, rng):
        coordinator, members = ThresholdTimeServer.setup(group, 3, 2, rng)
        share = members[1].issue_update_share(b"t-x")
        restored = UpdateShare.from_bytes(group, share.to_bytes(group))
        assert restored == share
        assert coordinator.verify_share(restored)

    def test_resilient_update_roundtrip(self, group, rng):
        from repro.core.resilient import ResilientTRE

        server = ResilientTimeServer(group, 5, rng)
        scheme = ResilientTRE(group, server.tree, server.public_key)
        user = scheme.generate_user_keypair(server.public_key, rng)
        ct = scheme.encrypt(b"over the wire", user.public, 6, rng)
        update = server.publish_update(20)
        restored = ResilientUpdate.from_bytes(group, update.to_bytes(group))
        assert restored == update
        assert scheme.decrypt(ct, user, restored, rng) == b"over the wire"

    def test_combined_threshold_update_is_wire_compatible(self, group, rng):
        """A threshold-combined update serializes as an ordinary update."""
        coordinator, members = ThresholdTimeServer.setup(group, 4, 2, rng)
        update = coordinator.combine(
            [m.issue_update_share(b"t-wire") for m in members[:2]]
        )
        blob = update.to_bytes(group)
        restored = TimeBoundKeyUpdate.from_bytes(group, blob)
        assert restored.verify(group, coordinator.public_key)
