"""Replay the committed TRE known-answer vectors on every backend.

``tre.json`` was generated once by ``generate_tre.py``; these tests
check today's key generation, BLS updates, encryption (with the
receiver-key check run seven times on one group), ``decrypt``,
``decrypt_batch`` and the receiver's ``K'`` against those bytes rather
than against another in-tree path.  Each case builds a fresh group, so
every replay starts with empty caches.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.keys import ServerPublicKey, UserPublicKey
from repro.core.timeserver import PassiveTimeServer, TimeBoundKeyUpdate
from repro.core.tre import TimedReleaseScheme, TRECiphertext
from repro.math.backend import available_backends
from repro.pairing.api import PairingGroup
from tests.vectors.generate_tre import encrypt_all, keys, message

DOC = json.loads(pathlib.Path(__file__).with_name("tre.json").read_text())
LABELS = [bytes.fromhex(label) for label in DOC["labels"]]
SINGLES = DOC["singles"]
BATCH = DOC["batch"]


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
    server, user = keys(group, entry["seed"])
    return entry, group, server, user


def _updates(entry, group):
    return [
        TimeBoundKeyUpdate.from_bytes(group, bytes.fromhex(blob))
        for blob in entry["updates"]
    ]


def _ciphertexts(entry, group):
    return [
        TRECiphertext.from_bytes(group, bytes.fromhex(blob))
        for blob in entry["ciphertexts"]
    ]


def test_keys(case):
    entry, group, server, user = case
    assert server.public.to_bytes(group).hex() == entry["server_public"]
    assert user.public.to_bytes(group).hex() == entry["user_public"]
    blob = bytes.fromhex(entry["user_public"])
    decoded = UserPublicKey.from_bytes(group, blob)
    server_public = ServerPublicKey.from_bytes(
        group, bytes.fromhex(entry["server_public"])
    )
    assert decoded.verify_well_formed(group, server_public)


def test_bls_updates(case):
    entry, group, server, user = case
    time_server = PassiveTimeServer(group, keypair=server)
    for label, blob in zip(LABELS, entry["updates"]):
        update = time_server.issue_update(label)
        assert update.to_bytes(group).hex() == blob
        assert update.verify(group, server.public)


def test_encrypt(case):
    """Seven encryptions on one group, every one with the key check."""
    entry, group, server, user = case
    ciphertexts = encrypt_all(group, server, user, entry["seed"])
    assert [ct.to_bytes(group).hex() for ct in ciphertexts] == entry["ciphertexts"]


def test_decrypt(case):
    entry, group, server, user = case
    updates = _updates(entry, group)
    scheme = TimedReleaseScheme(group)
    for index, ciphertext in enumerate(_ciphertexts(entry, group)):
        update = updates[0] if index < SINGLES else updates[1]
        plaintext = scheme.decrypt(ciphertext, user, update, server.public)
        assert plaintext == message(index)


def test_decrypt_batch(case):
    entry, group, server, user = case
    updates = _updates(entry, group)
    scheme = TimedReleaseScheme(group)
    batch = _ciphertexts(entry, group)[SINGLES:]
    assert len(batch) == BATCH
    plaintexts = scheme.decrypt_batch(batch, user, updates[1], server.public)
    assert plaintexts == [message(SINGLES + i) for i in range(BATCH)]


def test_receiver_keys(case):
    entry, group, server, user = case
    updates = _updates(entry, group)
    scheme = TimedReleaseScheme(group)
    for index, ciphertext in enumerate(_ciphertexts(entry, group)):
        update = updates[0] if index < SINGLES else updates[1]
        k = scheme._receiver_key(ciphertext.u_point, user.private, update.point)
        assert k.to_bytes().hex() == entry["receiver_keys"][index]
