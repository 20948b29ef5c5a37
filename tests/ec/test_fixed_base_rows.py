"""The affine fixed-base row builder against its Jacobian oracle.

:func:`repro.ec.jacobian.fixed_base_rows` grows every window's row in
affine coordinates, one batch inversion per digit step; the builder it
replaced, :func:`tests.ec.reference.fixed_base_rows_jacobian`, grows
them by Jacobian mixed additions and normalizes once.  Both must return
identical rows for every width on toy64 and ss512, families A and B,
for random bases and for tiny-order bases, whose rows take the affine
builder's exceptional steps: an infinity window base, an infinity
entry, a tangent (entry equal to the base) and a sum to infinity (entry
equal to the base's negative).
"""

from __future__ import annotations

import random

import pytest

from repro.ec import jacobian
from repro.pairing.api import PairingGroup
from tests.ec.reference import fixed_base_rows_jacobian
from tests.ec.test_jacobian import _point_of_order
from tests.ec.test_signed_tables import _scalars

GROUPS = [("toy64", "A"), ("toy64", "B"), ("ss512", "A"), ("ss512", "B")]
ORDERS = (2, 3, 4, 6)


@pytest.fixture(scope="module", params=GROUPS, ids=lambda g: f"{g[0]}-{g[1]}")
def group(request):
    params, family = request.param
    return PairingGroup(params, family=family)


def _rows(builder, group, point, width, bits=None):
    curve = group.ssc.curve
    rows = builder(
        group.backend, curve.int_a, point.x.value, point.y.value,
        bits or group.q.bit_length(), width,
    )
    return [[None if v is None else int(v) for v in row] for row in rows]


def _entries(row):
    """A flat row as its list of ``(x, y)`` entries, ``None`` for infinity."""
    return [
        None if row[i] is None else (row[i], row[i + 1])
        for i in range(0, len(row), 2)
    ]


@pytest.mark.parametrize("width", range(1, 9))
def test_rows_match_the_jacobian_oracle(group, width):
    rng = random.Random(width)
    points = [group.generator, group.random_point(rng)]
    points += [_point_of_order(group, m) for m in ORDERS]
    for point in points:
        assert _rows(jacobian.fixed_base_rows, group, point, width) == _rows(
            fixed_base_rows_jacobian, group, point, width
        ), (point, width)


@pytest.mark.parametrize("m", ORDERS)
def test_exceptional_steps(group, m):
    """Each entry is ``d·B_j`` by the affine oracle.  On an order-``m``
    base, step 2 is a tangent, step ``m`` sums ``-B`` and ``B`` to
    infinity, step ``m + 1`` steps from an infinity entry back to ``B``
    and step ``m + 2`` is a tangent again; at width 4 the second
    window's base ``2^4·P`` is infinity whenever ``m`` divides 16."""
    point = _point_of_order(group, m)
    width = 4
    rows = _rows(jacobian.fixed_base_rows, group, point, width, bits=8)
    for j, row in enumerate(rows):
        base = point.affine_scalar_mult(1 << (j * width))
        entries = _entries(row)
        for d, entry in enumerate(entries, start=1):
            expected = base.affine_scalar_mult(d)
            if expected.is_infinity:
                assert entry is None, (m, j, d)
            else:
                assert entry == (expected.x.value, expected.y.value), (m, j, d)
        if base.is_infinity:
            assert entries == [None] * len(entries)
        else:
            assert entries[m - 1] is None
            assert entries[m] == entries[0]
            assert entries[1] == entries[m + 1]
    if 16 % m == 0:
        assert all(v is None for row in rows[1:] for v in row)


def test_width_8_group_mul_matches_scalar_mult(group):
    """The default G1 table is width 8, and a tabled ``group.mul`` is
    byte-identical to the direct ladder for negative, edge, carry and
    over-capacity scalars."""
    curve = group.ssc.curve
    generator = group.generator
    table = group.precompute(generator)
    assert table.width == 8
    rng = random.Random(0x8)
    for k in _scalars(group, rng):
        with group.counters.measure() as counts:
            fast = group.mul(generator, k)
        assert counts["fixed_base_mult"] == 1
        assert fast.to_bytes() == curve.scalar_mult(generator, k).to_bytes(), k
