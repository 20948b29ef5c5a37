"""Replay the committed GT exponentiation vectors on every backend.

``gt.json`` was generated once by ``generate_gt.py``; these tests check
today's ``unitary_exp`` (on a seeded unitary element and on ``-1``),
``gt_exp`` with and without a ``precompute_gt`` table, and the Tate
pairing's ``final_exponentiation`` against those bytes rather than
against another in-tree path.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.math.backend import available_backends
from repro.math.quadratic import unitary_exp
from repro.pairing.api import PairingGroup
from repro.pairing.opcount import GT_FIXED_BASE
from tests.vectors.generate_gt import seeded_inputs

VECTORS = json.loads(pathlib.Path(__file__).with_name("gt.json").read_text())["sets"]


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


def _fp2(group, blob: str):
    return group.ssc.fp2.from_bytes(bytes.fromhex(blob))


def test_inputs_are_the_seeded_ones(case):
    entry, group = case
    inputs = seeded_inputs(group, entry["seed"])
    assert inputs["unitary"] == _fp2(group, entry["unitary"])
    assert [str(e) for e in inputs["exponents"]] == entry["exponents"]
    assert [str(k) for k in inputs["gt_exponents"]] == entry["gt_exponents"]
    assert inputs["miller"] == _fp2(group, entry["miller"])


def test_unitary_exp(case):
    entry, group = case
    z = _fp2(group, entry["unitary"])
    for exponent, expected in zip(entry["exponents"], entry["unitary_exp"]):
        assert unitary_exp(z, int(exponent)).to_bytes().hex() == expected


def test_unitary_exp_of_minus_one(case):
    entry, group = case
    minus_one = group.ssc.fp2(-1)
    for exponent, expected in zip(entry["exponents"], entry["minus_one_exp"]):
        assert unitary_exp(minus_one, int(exponent)).to_bytes().hex() == expected


def test_gt_exp_direct_and_fixed_base(case):
    entry, group = case
    fresh = PairingGroup(group.params, family=group.family, backend=group.backend_name)
    g = fresh.gt_from_bytes(bytes.fromhex(entry["gt"]))
    exponents = [int(k) for k in entry["gt_exponents"]]
    direct = [fresh.gt_exp(g, k).to_bytes().hex() for k in exponents]
    assert direct == entry["gt_exp"]
    fresh.precompute_gt(g)
    before = fresh.counters.total(GT_FIXED_BASE)
    table = [fresh.gt_exp(g, k).to_bytes().hex() for k in exponents]
    assert table == entry["gt_exp"]
    assert fresh.counters.total(GT_FIXED_BASE) - before == len(exponents)


def test_final_exponentiation(case):
    entry, group = case
    value = group.tate.final_exponentiation(_fp2(group, entry["miller"]))
    assert value.to_bytes().hex() == entry["final_exponentiation"]
