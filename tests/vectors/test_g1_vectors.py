"""Replay the committed G1 known-answer vectors on every backend.

``g1.json`` was generated once by ``generate_g1.py``; these tests check
today's code against those bytes rather than against another in-tree
path, so a refactor that moves both the fast and the reference path in
the same wrong direction still fails.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.math.backend import available_backends
from repro.pairing import hashing
from repro.pairing.api import PairingGroup

VECTORS = json.loads(
    pathlib.Path(__file__).with_name("g1.json").read_text()
)["sets"]


@pytest.fixture(
    scope="module",
    params=[
        (entry, backend)
        for entry in VECTORS
        for backend in available_backends()
    ],
    ids=lambda param: f"{param[0]['params']}-{param[0]['family']}-{param[1]}",
)
def case(request):
    entry, backend = request.param
    group = PairingGroup(entry["params"], family=entry["family"], backend=backend)
    return entry, group


def _encodings_match(group, point, expected) -> None:
    assert group.point_to_bytes(point).hex() == expected["uncompressed"]
    assert group.point_to_bytes_compressed(point).hex() == expected["compressed"]


def test_generator(case):
    entry, group = case
    _encodings_match(group, group.generator, entry["generator"])


def test_hash_to_g1(case):
    entry, group = case
    for item in entry["hash_to_g1"]:
        point = group.hash_to_g1(bytes.fromhex(item["data"]), tag=item["tag"])
        _encodings_match(group, point, item)


def test_cofactor_clearing(case):
    entry, group = case
    ssc = group.ssc
    for item in entry["cofactor"]:
        point = hashing.hash_to_curve_point(ssc, bytes.fromhex(item["data"]))
        assert point.to_bytes().hex() == item["point"]
        cleared = ssc.clear_cofactor(point)
        assert group.point_to_bytes(cleared).hex() == item["cleared"]


def test_scalar_mult(case):
    entry, group = case
    for item in entry["scalar_mult"]:
        k = int(item["k"], 16)
        _encodings_match(group, group.mul(group.generator, k), item)
        direct = group.ssc.curve.scalar_mult(group.generator, k)
        assert group.point_to_bytes(direct).hex() == item["uncompressed"]


def test_order_kills(case):
    entry, group = case
    assert len(entry["order_kills"]) == 1 + len(entry["hash_to_g1"])
    for blob in entry["order_kills"]:
        point = group.point_from_bytes(bytes.fromhex(blob))
        assert group.ssc.curve.scalar_mult(point, group.q).is_infinity


def test_decoding_round_trips(case):
    entry, group = case
    items = [entry["generator"], *entry["hash_to_g1"], *entry["scalar_mult"]]
    for item in items:
        full = group.point_from_bytes(bytes.fromhex(item["uncompressed"]))
        short = group.point_from_bytes_compressed(bytes.fromhex(item["compressed"]))
        assert full == short
        _encodings_match(group, full, item)
