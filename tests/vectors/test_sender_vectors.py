"""Replay the committed warm-sender vectors on every backend.

``sender.json`` was generated once by ``generate_sender.py``; these
tests check today's key generation, the ``g_{R,T}`` values that
``precompute_sender(time_labels=...)`` caches, and the TRE, hybrid and
broadcast ciphertexts of a warmed and of a cold sender against those
bytes.  Each case builds a fresh group, so every replay starts with
empty caches.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.tre import TimedReleaseScheme
from repro.math.backend import available_backends
from repro.pairing.api import PairingGroup
from tests.vectors.generate_sender import (
    LABELS,
    SCHEMES,
    encrypt_all,
    keys,
    sender_labels,
)

DOC = json.loads(pathlib.Path(__file__).with_name("sender.json").read_text())


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
    server, users = keys(group, entry["seed"])
    return entry, group, server, users


def test_keys(case):
    entry, group, server, users = case
    assert server.public.to_bytes(group).hex() == entry["server_public"]
    assert [user.public.to_bytes(group).hex() for user in users] == entry[
        "user_publics"
    ]


def test_sender_labels(case):
    """Each receiver warmed for all three labels, on one scheme."""
    entry, group, server, users = case
    scheme = TimedReleaseScheme(group)
    for user in users:
        scheme.precompute_sender(user.public, server.public, time_labels=LABELS)
    assert sender_labels(group, users) == entry["sender_labels"]


def test_sender_labels_one_at_a_time(case):
    """Warming label by label caches the same values."""
    entry, group, server, users = case
    scheme = TimedReleaseScheme(group)
    for label in LABELS:
        for user in users:
            scheme.precompute_sender(user.public, server.public, time_labels=[label])
    assert sender_labels(group, users) == entry["sender_labels"]


@pytest.mark.parametrize("name", list(SCHEMES))
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_ciphertexts(case, name, warm):
    entry, group, server, users = case
    assert encrypt_all(
        group, name, server, users, entry["seed"], warm=warm
    ) == entry["ciphertexts"][name]
