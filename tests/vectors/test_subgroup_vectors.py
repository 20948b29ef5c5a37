"""Replay the committed G1 subgroup-check vectors on every backend.

``subgroup.json`` was generated once by ``generate_subgroup.py``.  These
tests check today's encodings and verdicts against the committed ones:
both decoders on the committed bytes, and ``in_group`` on points built
in-process and on points decoded without the subgroup check.  Each
case builds a fresh group, and every membership test runs twice on the
same object, so a verdict cannot depend on what was asked before.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.math.backend import available_backends
from repro.pairing.api import PairingGroup
from tests.vectors.generate_subgroup import candidates, decode_verdict

DOC = json.loads(pathlib.Path(__file__).with_name("subgroup.json").read_text())
IN_G1 = {"generator", "h1"}


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
    return entry, group


def test_encodings(case):
    entry, group = case
    got = [
        (name, group.point_to_bytes(point).hex(),
         group.point_to_bytes_compressed(point).hex())
        for name, point in candidates(group)
    ]
    assert got == [
        (point["name"], point["uncompressed"], point["compressed"])
        for point in entry["points"]
    ]


def test_decode_verdicts(case):
    entry, group = case
    for point in entry["points"]:
        for _ in range(2):
            assert decode_verdict(
                group.point_from_bytes, bytes.fromhex(point["uncompressed"])
            ) == point["from_bytes"], point["name"]
            assert decode_verdict(
                group.point_from_bytes_compressed,
                bytes.fromhex(point["compressed"]),
            ) == point["from_bytes_compressed"], point["name"]


def test_in_group_built_in_process(case):
    entry, group = case
    expected = {point["name"]: point["in_group"] for point in entry["points"]}
    for name, point in candidates(group):
        assert group.in_group(point) == expected[name], name
        assert group.in_group(point) == expected[name], name


def test_in_group_decoded_unchecked(case):
    entry, group = case
    for point in entry["points"]:
        decoded = group.ssc.curve.point_from_bytes(
            bytes.fromhex(point["uncompressed"])
        )
        assert group.in_group(decoded) == point["in_group"], point["name"]
        assert group.in_group(decoded) == point["in_group"], point["name"]


def test_only_g1_points_pass():
    for entry in DOC["sets"]:
        for point in entry["points"]:
            member = point["name"] in IN_G1
            assert point["in_group"] == member
            for verdict in (point["from_bytes"], point["from_bytes_compressed"]):
                assert verdict == ("accept" if member else "NotInSubgroupError")
