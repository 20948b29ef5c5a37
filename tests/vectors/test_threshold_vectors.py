"""Replay the committed threshold share-check vectors on every backend.

``threshold.json`` was generated once by ``generate_threshold.py``.
These tests check today's dealer setup and share issuance against the
committed bytes, then replay every candidate's verdict through
``verify_share`` and ``combine`` on a coordinator rebuilt from the
committed public data alone.  Each case builds a fresh group, so every
replay starts with empty caches.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.keys import ServerPublicKey
from repro.core.threshold import ThresholdTimeServer, UpdateShare
from repro.math.backend import available_backends
from repro.pairing.api import PairingGroup
from tests.vectors.generate_threshold import candidates, combined, setup

DOC = json.loads(pathlib.Path(__file__).with_name("threshold.json").read_text())


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
    coordinator = ThresholdTimeServer(
        group,
        DOC["threshold"],
        ServerPublicKey.from_bytes(group, bytes.fromhex(entry["public"])),
        [group.point_from_bytes(bytes.fromhex(c)) for c in entry["commitments"]],
        DOC["members"],
    )
    shares = [
        [UpdateShare.from_bytes(group, bytes.fromhex(blob)) for blob in row]
        for row in entry["shares"]
    ]
    return entry, group, coordinator, shares


def test_setup_and_issuance(case):
    entry, group, _, _ = case
    coordinator, members = setup(group, entry["seed"])
    assert coordinator.public_key.to_bytes(group).hex() == entry["public"]
    assert [
        group.point_to_bytes(c).hex() for c in coordinator.commitments
    ] == entry["commitments"]
    labels = [bytes.fromhex(label) for label in DOC["labels"]]
    assert [
        [member.issue_update_share(label).to_bytes(group).hex()
         for member in members]
        for label in labels
    ] == entry["shares"]


def test_verify_share(case):
    entry, group, coordinator, shares = case
    got = [
        [name, coordinator.verify_share(candidate)]
        for name, candidate in candidates(group, coordinator, shares)
    ]
    assert got == [[name, ok] for name, ok, _ in entry["verdicts"]]


def test_combine(case):
    entry, group, coordinator, shares = case
    got = [
        [name, combined(group, coordinator, shares, candidate)]
        for name, candidate in candidates(group, coordinator, shares)
    ]
    assert got == [[name, blob] for name, _, blob in entry["verdicts"]]


def test_only_honest_shares_pass(case):
    entry, *_ = case
    assert all(
        ok == name.startswith("honest") == (blob is not None)
        for name, ok, blob in entry["verdicts"]
    )
