"""Replay the committed §5.1-core scheme vectors on every backend.

``schemes.json`` was generated once by ``generate_schemes.py``; these
tests check today's key generation, attestations and updates,
policy-lock (ALL, ANY, 2-of-3), multi-server, FO, REACT and ID-TRE
encryption against those bytes (ID-TRE, ALL and 2-of-3 also with every
label warmed in the sender's cache), decrypt each committed ciphertext to
its fixed plaintext with the update check on, and show that an update
for the wrong label raises :class:`UpdateVerificationError`.  Each case
builds a fresh group, so every replay starts with empty caches.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.fujisaki_okamoto import FOTimedReleaseScheme, FOTRECiphertext
from repro.core.idtre import (
    IDTRECiphertext,
    IDUserKey,
    IdentityTimedReleaseScheme,
)
from repro.core.multiserver import (
    MultiServerCiphertext,
    MultiServerTimedReleaseScheme,
)
from repro.core.policylock import (
    ConjunctionCiphertext,
    DisjunctionCiphertext,
    PolicyLockScheme,
    ThresholdPolicyCiphertext,
    ThresholdPolicyScheme,
)
from repro.core.react import ReactTimedReleaseScheme, ReactTRECiphertext
from repro.core.timeserver import PassiveTimeServer, TimeBoundKeyUpdate
from repro.core.tre import TimedReleaseScheme
from repro.errors import UpdateVerificationError
from repro.math.backend import available_backends
from repro.pairing.api import PairingGroup
from tests.vectors.generate_schemes import (
    CONDITIONS,
    IDENTITY,
    LABELS,
    _rng,
    encode,
    encrypt,
    keys,
    message,
    points,
)

DOC = json.loads(pathlib.Path(__file__).with_name("schemes.json").read_text())
ALL = DOC["all_conditions"]


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
    return entry, group, keys(group, entry["seed"])


def _update(group, blob: str) -> TimeBoundKeyUpdate:
    return TimeBoundKeyUpdate.from_bytes(group, bytes.fromhex(blob))


def _points(group, blobs):
    return tuple(group.point_from_bytes(bytes.fromhex(blob)) for blob in blobs)


def _relabelled(update: TimeBoundKeyUpdate, label: bytes) -> TimeBoundKeyUpdate:
    """Another label's update point presented under ``label``."""
    return TimeBoundKeyUpdate(label, update.point)


def test_keys_and_updates(case):
    entry, group, (server, user, multi_servers, multi_user) = case
    assert server.public.to_bytes(group).hex() == entry["server_public"]
    assert user.public.to_bytes(group).hex() == entry["user_public"]
    assert [
        s.public.to_bytes(group).hex() for s in multi_servers
    ] == entry["multi_server_publics"]
    assert [
        c.to_bytes(group).hex() for c in multi_user.components
    ] == entry["multi_user_components"]
    witness = PassiveTimeServer(group, keypair=server)
    assert [
        witness.issue_update(c).to_bytes(group).hex() for c in CONDITIONS
    ] == entry["attestations"]
    assert [
        witness.issue_update(label).to_bytes(group).hex() for label in LABELS
    ] == entry["updates"]
    for label, blobs in zip(LABELS, entry["multi_updates"]):
        assert [
            PassiveTimeServer(group, keypair=s).issue_update(label)
            .to_bytes(group).hex()
            for s in multi_servers
        ] == blobs
    id_key = IdentityTimedReleaseScheme(group).extract_user_key(server, IDENTITY)
    assert group.point_to_bytes(id_key.point).hex() == entry["idtre_user_key"]


def test_encrypt(case):
    """Re-encrypting under the same seeds gives the committed bytes."""
    entry, group, keyset = case
    assert encode(group, encrypt(group, keyset, entry["seed"])) == (
        entry["ciphertexts"]
    )


def test_warm_encrypt(case):
    """ID-TRE, the AND lock and the t-of-m lock give the committed bytes
    with every label warm too; the group caches one pairing per identity,
    time and condition, not one per (identity, time) pair."""
    entry, group, (server, user, _, _) = case
    seed = entry["seed"]
    identities = [IDENTITY, IDENTITY + b":bob", IDENTITY + b":carol"]
    idtre = IdentityTimedReleaseScheme(group)
    idtre.precompute_sender(server.public, identities, LABELS)
    assert len(group._sender_gt) == len(identities) + len(LABELS)
    ciphertext = idtre.encrypt(
        message("idtre"), IDENTITY, server.public, LABELS[0],
        _rng(seed, "idtre"),
    )
    assert ciphertext.to_bytes(group).hex() == entry["ciphertexts"]["idtre"]
    kem = TimedReleaseScheme(group)
    kem.precompute_sender(user.public, server.public, time_labels=CONDITIONS[:ALL])
    policy = PolicyLockScheme(group)
    ciphertext = policy.encrypt_all(
        message("policy_all"), user.public, server.public,
        CONDITIONS[:ALL], _rng(seed, "policy_all"),
    )
    assert ciphertext.to_bytes(group).hex() == entry["ciphertexts"]["policy_all"]
    blob = entry["ciphertexts"]["policy_threshold"]
    group.clear_precomputations()
    kem.precompute_sender(user.public, server.public, time_labels=CONDITIONS)
    assert len(group._sender_gt) == len(CONDITIONS)
    threshold = ThresholdPolicyScheme(group)
    warm = threshold.encrypt(
        message("policy_threshold"), user.public, server.public,
        CONDITIONS, blob["threshold"], _rng(seed, "policy_threshold"),
    )
    assert points(group, warm.u_points) == blob["u_points"]
    assert warm.sealed.hex() == blob["sealed"]
    group.clear_precomputations()
    assert not group._sender_gt


def test_policy_all(case):
    entry, group, (server, user, _, _) = case
    scheme = PolicyLockScheme(group)
    ciphertext = ConjunctionCiphertext.from_bytes(
        group, bytes.fromhex(entry["ciphertexts"]["policy_all"])
    )
    attestations = [_update(group, blob) for blob in entry["attestations"]]
    opened = scheme.decrypt_all(
        ciphertext, user, attestations[:2][::-1], server.public
    )
    assert opened == message("policy_all")
    with pytest.raises(UpdateVerificationError):
        scheme.decrypt_all(
            ciphertext, user,
            [attestations[0], _relabelled(attestations[2], CONDITIONS[1])],
            server.public,
        )


def test_policy_any(case):
    entry, group, (server, user, _, _) = case
    scheme = PolicyLockScheme(group)
    blob = entry["ciphertexts"]["policy_any"]
    ciphertext = DisjunctionCiphertext(
        _points(group, blob["u_points"]),
        bytes.fromhex(blob["sealed"]),
        tuple(bytes.fromhex(c) for c in blob["conditions"]),
    )
    for attestation_blob in entry["attestations"]:
        attestation = _update(group, attestation_blob)
        assert scheme.decrypt_any(
            ciphertext, user, attestation, server.public
        ) == message("policy_any")
    wrong = _relabelled(_update(group, entry["updates"][0]), CONDITIONS[1])
    with pytest.raises(UpdateVerificationError):
        scheme.decrypt_any(ciphertext, user, wrong, server.public)


def test_policy_threshold(case):
    entry, group, (server, user, _, _) = case
    scheme = ThresholdPolicyScheme(group)
    blob = entry["ciphertexts"]["policy_threshold"]
    ciphertext = ThresholdPolicyCiphertext(
        blob["threshold"],
        _points(group, blob["u_points"]),
        bytes.fromhex(blob["sealed"]),
        tuple(bytes.fromhex(c) for c in blob["conditions"]),
    )
    attestations = [_update(group, a) for a in entry["attestations"]]
    for pair in ((0, 1), (0, 2), (2, 1)):
        opened = scheme.decrypt(
            ciphertext, user, [attestations[i] for i in pair], server.public
        )
        assert opened == message("policy_threshold")
    with pytest.raises(UpdateVerificationError):
        scheme.decrypt(
            ciphertext, user,
            [attestations[0], _relabelled(attestations[1], CONDITIONS[2])],
            server.public,
        )


def test_multiserver(case):
    entry, group, (_, _, multi_servers, multi_user) = case
    scheme = MultiServerTimedReleaseScheme(
        group, [s.public for s in multi_servers]
    )
    ciphertext = MultiServerCiphertext.from_bytes(
        group, bytes.fromhex(entry["ciphertexts"]["multiserver"])
    )
    right, wrong = (
        [_update(group, blob) for blob in blobs]
        for blobs in entry["multi_updates"]
    )
    assert scheme.decrypt(
        ciphertext, multi_user.private, right
    ) == message("multiserver")
    with pytest.raises(UpdateVerificationError):
        scheme.decrypt(ciphertext, multi_user.private, right[:2] + wrong[2:])


@pytest.mark.parametrize("name", ["fo", "react"])
def test_cca_transforms(case, name):
    entry, group, (server, user, _, _) = case
    scheme_class, ciphertext_class = {
        "fo": (FOTimedReleaseScheme, FOTRECiphertext),
        "react": (ReactTimedReleaseScheme, ReactTRECiphertext),
    }[name]
    scheme = scheme_class(group)
    ciphertext = ciphertext_class.from_bytes(
        group, bytes.fromhex(entry["ciphertexts"][name])
    )
    right, wrong = (_update(group, blob) for blob in entry["updates"])
    assert scheme.decrypt(ciphertext, user, right, server.public) == message(name)
    with pytest.raises(UpdateVerificationError):
        scheme.decrypt(ciphertext, user, wrong, server.public)


def test_idtre(case):
    entry, group, (server, _, _, _) = case
    scheme = IdentityTimedReleaseScheme(group)
    ciphertext = IDTRECiphertext.from_bytes(
        group, bytes.fromhex(entry["ciphertexts"]["idtre"])
    )
    user_key = IDUserKey(
        IDENTITY, group.point_from_bytes(bytes.fromhex(entry["idtre_user_key"]))
    )
    right, wrong = (_update(group, blob) for blob in entry["updates"])
    assert scheme.decrypt(
        ciphertext, user_key, right, server.public
    ) == message("idtre")
    with pytest.raises(UpdateVerificationError):
        scheme.decrypt(ciphertext, user_key, wrong, server.public)
