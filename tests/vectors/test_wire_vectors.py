"""Replay the committed wire-object vectors on every backend.

``wire.json`` was generated once by ``generate_wire.py``; these tests
rebuild every object from the same seeds and compare its bytes, then
decode each committed blob and re-encode it to the same bytes: update
shares and the combined threshold update, resilient updates, the
key-insulated case, the resilient, OR and 2-of-3 policy-lock
ciphertexts, an archive snapshot and every service frame.  The
resilient, key-insulated and policy-lock ciphertexts decrypt to their
fixed plaintexts.  Each case builds a fresh group, so every replay starts
with empty caches.
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from repro.core.key_insulation import EpochKey, decrypt_with_epoch_key
from repro.core.keys import ServerPublicKey, UserPublicKey
from repro.core.policylock import (
    DisjunctionCiphertext,
    PolicyLockScheme,
    ThresholdPolicyCiphertext,
    ThresholdPolicyScheme,
)
from repro.core.resilient import ResilientCiphertext, ResilientUpdate
from repro.core.threshold import UpdateShare
from repro.core.timeserver import PassiveTimeServer, TimeBoundKeyUpdate
from repro.core.tre import TRECiphertext
from repro.errors import UpdateNotAvailableError
from repro.math.backend import available_backends
from repro.pairing.api import PairingGroup
from repro.service import wire
from tests.vectors.generate_wire import (
    CONDITIONS,
    EPOCHS,
    LABEL,
    RELEASE_EPOCH,
    build,
    encode,
    frames,
    keys,
    message,
    resilient,
)

DOC = json.loads(pathlib.Path(__file__).with_name("wire.json").read_text())


@pytest.fixture(
    params=[
        (entry, backend)
        for entry in DOC["sets"]
        for backend in available_backends()
    ],
    ids=lambda param: f"{param[0]['params']}-{param[0]['family']}-{param[1]}",
)
def case(request):
    entry, backend = request.param
    group = PairingGroup(entry["params"], family=entry["family"], backend=backend)
    return entry, group, entry["objects"]


def _replayed(cls, group, blob: str):
    """Decode ``blob`` and check it re-encodes to the same bytes."""
    decoded = cls.from_bytes(group, bytes.fromhex(blob))
    assert decoded.to_bytes(group).hex() == blob
    return decoded


def _resilient_ciphertext(group, pinned: dict) -> ResilientCiphertext:
    return ResilientCiphertext(
        pinned["epoch"],
        pinned["depth"],
        group.point_from_bytes(bytes.fromhex(pinned["u0"])),
        tuple(group.point_from_bytes(bytes.fromhex(u)) for u in pinned["u_points"]),
        bytes.fromhex(pinned["masked"]),
    )


def test_encode(case):
    """Rebuilding every object under the same seeds gives the committed bytes."""
    entry, group, objects = case
    assert encode(group, build(group, entry["seed"])) == objects


def test_keys(case):
    _, group, objects = case
    for name in ("server_public", "threshold_public", "resilient_public"):
        _replayed(ServerPublicKey, group, objects[name])
    for name in ("user_public", "resilient_user_public"):
        _replayed(UserPublicKey, group, objects[name])


def test_threshold(case):
    _, group, objects = case
    shares = [_replayed(UpdateShare, group, s) for s in objects["update_shares"]]
    assert [share.member_index for share in shares] == [1, 2, 3]
    assert {share.time_label for share in shares} == {LABEL}
    combined = _replayed(TimeBoundKeyUpdate, group, objects["combined_update"])
    threshold_public = ServerPublicKey.from_bytes(
        group, bytes.fromhex(objects["threshold_public"])
    )
    assert combined.verify(group, threshold_public)


def test_resilient(case):
    entry, group, objects = case
    updates = [
        _replayed(ResilientUpdate, group, blob)
        for blob in objects["resilient_updates"]
    ]
    assert [update.epoch for update in updates] == list(EPOCHS)
    ciphertext = _resilient_ciphertext(group, objects["resilient_ciphertext"])
    assert ciphertext.epoch == RELEASE_EPOCH
    _, scheme, user = resilient(group, entry["seed"])
    rng = random.Random(0)
    for update in updates:
        if update.epoch < RELEASE_EPOCH:
            with pytest.raises(UpdateNotAvailableError):
                scheme.decrypt(ciphertext, user, update, rng)
        else:
            assert scheme.decrypt(ciphertext, user, update, rng) == (
                message("resilient")
            )


def test_resilient_ciphertext_bytes(case):
    _, group, objects = case
    ciphertext = _replayed(
        ResilientCiphertext, group, objects["resilient_ciphertext_bytes"]
    )
    assert ciphertext == _resilient_ciphertext(
        group, objects["resilient_ciphertext"]
    )


def test_policy_locks(case):
    entry, group, objects = case
    server, user = keys(group, entry["seed"])
    witness = PassiveTimeServer(group, keypair=server)
    attestations = [witness.issue_update(c) for c in CONDITIONS]
    any_ciphertext = _replayed(DisjunctionCiphertext, group, objects["policy_any"])
    assert PolicyLockScheme(group).decrypt_any(
        any_ciphertext, user, attestations[2], server.public
    ) == message("policy_any")
    threshold_ciphertext = _replayed(
        ThresholdPolicyCiphertext, group, objects["policy_threshold"]
    )
    assert ThresholdPolicyScheme(group).decrypt(
        threshold_ciphertext, user, attestations[1:], server.public
    ) == message("policy_threshold")


def test_insulated(case):
    entry, group, objects = case
    pinned = objects["insulated"]
    server, user = keys(group, entry["seed"])
    update = _replayed(TimeBoundKeyUpdate, group, pinned["update"])
    assert update.verify(group, server.public)
    ciphertext = _replayed(TRECiphertext, group, pinned["ciphertext"])
    epoch_key = EpochKey(update.time_label, group.mul(update.point, user.private))
    plaintext = decrypt_with_epoch_key(group, ciphertext, epoch_key)
    assert plaintext.hex() == pinned["plaintext"]
    assert plaintext == message("insulated")


def test_archive_snapshot(case):
    entry, group, objects = case
    server, _ = keys(group, entry["seed"])
    snapshot = bytes.fromhex(objects["archive_snapshot"])
    fresh = PassiveTimeServer(group, keypair=server)
    assert fresh.restore_archive(snapshot) == 3
    assert fresh.snapshot_archive() == snapshot


def test_frames(case):
    _, group, objects = case
    archived = wire.decode_message(
        bytes.fromhex(objects["frames"]["archive_3"])
    ).update_blobs
    expected = frames(list(archived))
    assert sorted(expected) == sorted(objects["frames"])
    for name, blob in objects["frames"].items():
        data = bytes.fromhex(blob)
        decoded = wire.decode_message(data)
        assert decoded == expected[name]
        assert wire.encode_message(decoded) == data
        assert wire.encode_message(expected[name]) == data
    for blob in archived:
        _replayed(TimeBoundKeyUpdate, group, blob.hex())
