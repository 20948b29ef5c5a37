"""Replay the committed pairing known-answer vectors on every backend.

``pairing.json`` was generated once by ``generate_pairing.py``; these
tests check today's Tate pairing — direct, from recorded lines, and as
a multi-pairing — against those bytes rather than against another
in-tree path, so a refactor of the Miller loop that moves every path
the same way still fails.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.math.backend import available_backends
from repro.pairing.api import PairingGroup
from tests.vectors.generate_pairing import seeded_points

VECTORS = json.loads(
    pathlib.Path(__file__).with_name("pairing.json").read_text()
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
    points = [group.point_from_bytes(bytes.fromhex(blob)) for blob in entry["points"]]
    return entry, group, points


def test_points_are_the_seeded_ones(case):
    entry, group, points = case
    assert seeded_points(group, entry["seed"]) == points


def test_pair(case):
    entry, group, points = case
    for item in entry["pair"]:
        p, q = points[item["p"]], points[item["q"]]
        assert group.tate.pair(p, q).to_bytes().hex() == item["gt"]


def test_pair_with_precomp(case):
    entry, group, points = case
    fresh = PairingGroup(group.params, family=group.family, backend=group.backend_name)
    for item in entry["pair_with_precomp"]:
        p, q = points[item["p"]], points[item["q"]]
        assert fresh.precompute_pairing(p).pair(q).to_bytes().hex() == item["gt"]
        if group.family == "A":
            lines = fresh.precompute_pairing(p).lines
            value = group.tate.pair_with_precomp(lines, q)
            assert value.to_bytes().hex() == item["gt"]


def test_multi_pair(case):
    entry, group, points = case
    spec = entry["multi_pair"]
    pairs = [(points[i], points[j]) for i, j in spec["pairs"]]
    exponents = spec["exponents"]
    assert group.tate.multi_pair(pairs, exponents).to_bytes().hex() == spec["gt"]
    assert group.multi_pair(pairs, exponents).to_bytes().hex() == spec["gt"]
    if group.family == "A":
        # Mixed recorded-lines and point arguments share one product.
        mixed = [(group.tate.precompute_lines(p), q) for p, q in pairs[:2]]
        mixed += pairs[2:]
        value = group.tate.multi_pair(mixed, exponents)
        assert value.to_bytes().hex() == spec["gt"]


def test_multi_pair_mixed(case):
    entry, group, points = case
    if group.family != "A":
        assert "multi_pair_mixed" not in entry
        return
    spec = entry["multi_pair_mixed"]
    pairs = [
        (group.tate.precompute_lines(points[i]) if recorded else points[i],
         points[j])
        for (i, j), recorded in zip(spec["pairs"], spec["recorded"])
    ]
    value = group.tate.multi_pair(pairs, spec["exponents"])
    assert value.to_bytes().hex() == spec["gt"]


def test_multi_pair_single(case):
    entry, group, points = case
    spec = entry["multi_pair_single"]
    i, j = spec["pair"]
    pairs = [(points[i], points[j])]
    exponents = [spec["exponent"]]
    assert group.tate.multi_pair(pairs, exponents).to_bytes().hex() == spec["gt"]
    assert group.multi_pair(pairs, exponents).to_bytes().hex() == spec["gt"]
    inverse = group.tate.pair(points[i], points[j]).inverse()
    assert inverse.to_bytes().hex() == spec["gt"]


def test_lines_digest(case):
    entry, group, points = case
    if group.family != "A":
        assert "lines_sha256" not in entry
        return
    for index, digest in entry["lines_sha256"].items():
        lines = group.tate.precompute_lines(points[int(index)])
        blob = lines.to_bytes(group.ssc.fp.element_bytes)
        assert hashlib.sha256(blob).hexdigest() == digest
