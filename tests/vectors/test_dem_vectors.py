"""Replay the committed DEM and broadcast known-answer vectors.

``dem.json`` was generated once by ``generate_dem.py``; these tests
check today's stream cipher, AEAD, ``xor_bytes`` and broadcast
encryption against those bytes rather than against another in-tree
path.  The symmetric layer is backend-independent and replays once;
the broadcast ciphertexts replay on every available backend.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.core.broadcast import BroadcastCiphertext, BroadcastTimedReleaseScheme
from repro.core.timeserver import PassiveTimeServer
from repro.crypto.authenc import aead_decrypt, aead_encrypt
from repro.crypto.stream import keystream
from repro.encoding import xor_bytes
from repro.math.backend import available_backends
from repro.pairing.api import PairingGroup
from tests.vectors.generate_dem import (
    broadcast_setup,
    bulk_inputs,
    encrypt_case,
    payload,
)

DOC = json.loads(pathlib.Path(__file__).with_name("dem.json").read_text())
SECRET = bytes.fromhex(DOC["secret"])
NONCE = bytes.fromhex(DOC["nonce"])
AD = bytes.fromhex(DOC["associated_data"])
LABEL = bytes.fromhex(DOC["broadcast"]["label"])
MESSAGE = bytes.fromhex(DOC["broadcast"]["message"])


@pytest.mark.parametrize(
    "item", DOC["keystream"], ids=lambda item: f"len{item['length']}"
)
def test_keystream(item):
    assert keystream(SECRET, NONCE, item["length"]).hex() == item["pad"]


@pytest.mark.parametrize(
    "item", DOC["aead_encrypt"], ids=lambda item: f"len{item['length']}"
)
def test_aead_encrypt(item):
    plaintext = payload(item["length"])
    sealed = aead_encrypt(SECRET, NONCE, plaintext, AD)
    assert sealed.hex() == item["sealed"]
    assert aead_decrypt(SECRET, NONCE, sealed, AD) == plaintext


def test_bulk_seal():
    expected = DOC["bulk_seal"]
    secret, plaintext = bulk_inputs()
    assert len(plaintext) == expected["length"]
    sealed = aead_encrypt(secret, NONCE, plaintext, AD)
    assert hashlib.sha256(sealed).hexdigest() == expected["sha256"]
    assert aead_decrypt(secret, NONCE, sealed, AD) == plaintext


def test_xor_bytes():
    for item in DOC["xor_bytes"]:
        a, b = bytes.fromhex(item["a"]), bytes.fromhex(item["b"])
        assert xor_bytes(a, b).hex() == item["out"]
        assert xor_bytes(b, a).hex() == item["out"]


@pytest.fixture(
    scope="module",
    params=[
        (entry, backend)
        for entry in DOC["broadcast"]["sets"]
        for backend in available_backends()
    ],
    ids=lambda param: f"{param[0]['params']}-{param[0]['family']}-{param[1]}",
)
def broadcast_set(request):
    entry, backend = request.param
    group = PairingGroup(entry["params"], family=entry["family"], backend=backend)
    server, users = broadcast_setup(group, entry["key_seed"])
    assert [
        group.point_to_bytes(user.public.as_generator).hex() for user in users
    ] == entry["receivers"]
    return entry, group, server, users


def test_broadcast_ciphertexts(broadcast_set):
    entry, group, server, users = broadcast_set
    for case in entry["cases"]:
        ct = encrypt_case(
            group, server, users, case["recipients"], tuple(case["warm"]),
            case["rng_seed"],
        )
        assert ct.to_bytes(group).hex() == case["ciphertext"], case["name"]


def test_broadcast_vectors_decrypt(broadcast_set):
    entry, group, server, users = broadcast_set
    (mixed,) = [case for case in entry["cases"] if case["name"] == "mixed-3"]
    ct = BroadcastCiphertext.from_bytes(group, bytes.fromhex(mixed["ciphertext"]))
    update = PassiveTimeServer(group, keypair=server).issue_update(LABEL)
    scheme = BroadcastTimedReleaseScheme(group)
    for index, user in enumerate(users):
        assert scheme.decrypt_broadcast(ct, index, user, update) == MESSAGE
