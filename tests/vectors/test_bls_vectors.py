"""Replay the committed BLS update-check vectors on every backend.

``bls.json`` was generated once by ``generate_bls.py``.  These tests
check today's signing against the committed update bytes and today's
verdicts, through every entry point an update check takes, against the
committed verdicts rather than against another in-tree path.  Each case
builds a fresh group, so every replay starts with empty caches.

The update check records the server key's lines from its second use
per group, so the cold tests clear the group's caches before each
candidate, and :func:`test_verify_second_use` replays every verdict as
the first (fused), second (recording) and third (replayed) check.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.bls import BLSSignatureScheme
from repro.core.keys import ServerPublicKey
from repro.core.timeserver import TimeBoundKeyUpdate, verify_archive
from repro.math.backend import available_backends
from repro.pairing.api import PairingGroup
from tests.vectors.generate_bls import candidates, server_keys

DOC = json.loads(pathlib.Path(__file__).with_name("bls.json").read_text())
LABELS = [bytes.fromhex(label) for label in DOC["labels"]]


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
    public = ServerPublicKey.from_bytes(
        group, bytes.fromhex(entry["server_public"])
    )
    signatures = [
        group.point_from_bytes(bytes.fromhex(blob)) for blob in entry["updates"]
    ]
    return entry, group, public, candidates(group, public, signatures)


def _expected(entry):
    return [tuple(verdict) for verdict in entry["verdicts"]]


def test_signing(case):
    entry, group, public, _ = case
    server = server_keys(group, entry["seed"])
    assert server.public.to_bytes(group).hex() == entry["server_public"]
    bls = BLSSignatureScheme(group)
    for label, blob in zip(LABELS, entry["updates"]):
        assert group.point_to_bytes(bls.sign(server, label)).hex() == blob


def test_verify_cold(case):
    entry, group, public, points = case
    bls = BLSSignatureScheme(group)
    got = []
    for name, index, point in points:
        group.clear_precomputations()
        got.append((name, index, bls.verify(public, LABELS[index], point)))
    assert got == _expected(entry)


def test_verify_precomputed(case):
    entry, group, public, points = case
    bls = BLSSignatureScheme(group)
    bls.precompute_public(public)
    got = [
        (name, index, bls.verify(public, LABELS[index], point))
        for name, index, point in points
    ]
    assert got == _expected(entry)


def test_update_verify(case):
    entry, group, public, points = case
    got = []
    for name, index, point in points:
        group.clear_precomputations()
        update = TimeBoundKeyUpdate(LABELS[index], point)
        got.append((name, index, update.verify(group, public)))
    assert got == _expected(entry)


def test_verify_second_use(case):
    """Every verdict as the 1st, 2nd and 3rd check on one group.

    Before the ``k``-th position the caches are cleared and ``k - 1``
    honest checks run, so the candidate meets the fused, recording and
    replaying paths in turn.  Each check builds a fresh update, so no
    earlier accept answers for it.
    """
    entry, group, public, points = case
    honest = points[0][2]
    for position in (1, 2, 3):
        got = []
        for name, index, point in points:
            group.clear_precomputations()
            for _ in range(position - 1):
                assert TimeBoundKeyUpdate(LABELS[0], honest).verify(group, public)
            update = TimeBoundKeyUpdate(LABELS[index], point)
            got.append((name, index, update.verify(group, public)))
        assert got == _expected(entry), f"check {position}"


def test_verify_archive(case):
    entry, group, public, points = case
    updates = [TimeBoundKeyUpdate(LABELS[index], point) for _, index, point in points]
    failed = [
        LABELS[index] for name, index, ok in _expected(entry) if not ok
    ]
    assert verify_archive(group, public, updates) == failed


def test_only_honest_updates_verify(case):
    entry, *_ = case
    assert all(ok == (name == "honest") for name, _, ok in _expected(entry))
