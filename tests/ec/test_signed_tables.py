"""The signed-digit fixed-base tables against the direct paths.

:class:`~repro.ec.precompute.FixedBaseTable` and
:class:`~repro.math.quadratic.GTFixedBaseTable` share one recoding,
:func:`~repro.math.backend.base.signed_window_digits`: base-``2^w``
digits in ``(-2^(w-1), 2^(w-1)]`` with a carry into one extra window.
The recoding must rebuild every scalar exactly, and both tables must
return what ``curve.scalar_mult`` and ``unitary_exp`` return, on toy64
and ss512, families A and B: for negative and over-capacity scalars,
for scalars whose carry reaches the top window, and for tiny-order
bases whose table entries are the point at infinity (G1) or repeat a
small cycle (GT).
"""

from __future__ import annotations

import random

import pytest

from repro.ec.precompute import FixedBaseTable
from repro.errors import ParameterError
from repro.math.backend.base import signed_window_digits
from repro.math.quadratic import GTFixedBaseTable, unitary_exp
from repro.pairing.api import PairingGroup
from repro.pairing.params import get_parameter_set
from tests.ec.test_jacobian import _point_of_order

GROUPS = [("toy64", "A"), ("toy64", "B"), ("ss512", "A"), ("ss512", "B")]
WIDTHS = range(1, 9)


def _rebuild(digits, width):
    return sum(digit << (index * width) for index, digit in enumerate(digits))


class TestSignedWindowDigits:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_rebuilds_scalar_with_digits_in_range(self, width):
        q = get_parameter_set("ss512").q
        bits = q.bit_length()
        rng = random.Random(width)
        half = 1 << (width - 1)
        scalars = [0, 1, q - 1, (1 << bits) - 1]
        scalars += [rng.getrandbits(bits) for _ in range(50)]
        for k in scalars:
            digits = signed_window_digits(k, width)
            assert _rebuild(digits, width) == k
            assert all(-half < digit <= half for digit in digits)
            assert len(digits) <= bits // width + 1

    def test_edge_scalars(self):
        assert signed_window_digits(0, 5) == []
        assert signed_window_digits(1, 5) == [1]
        assert signed_window_digits(16, 5) == [16]
        assert signed_window_digits(17, 5) == [-15, 1]
        assert signed_window_digits(31, 5) == [-1, 1]

    @pytest.mark.parametrize("width", WIDTHS)
    def test_carry_reaches_the_extra_window(self, width):
        """``2^bits - 1`` needs every window, the extra one included,
        whenever its top window is full (``bits % w == 0``) or its
        digit overflows after the carry."""
        for bits in (64, 160):
            k = (1 << bits) - 1
            digits = signed_window_digits(k, width)
            assert _rebuild(digits, width) == k
            if width > 1 and bits % width == 0:
                assert len(digits) == bits // width + 1
                assert digits[-1] == 1

    def test_top_digit_may_equal_the_bound(self):
        """On toy64's 64 bits at width 5 the top window holds 4 bits;
        15 plus a carry is 16 = 2^(w-1), the inclusive upper bound."""
        digits = signed_window_digits((1 << 64) - 1, 5)
        assert len(digits) == 64 // 5 + 1
        assert digits[-1] == 16

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            signed_window_digits(-1, 5)
        with pytest.raises(ParameterError):
            signed_window_digits(5, 0)


@pytest.fixture(scope="module", params=GROUPS, ids=lambda g: f"{g[0]}-{g[1]}")
def setup(request):
    params, family = request.param
    group = PairingGroup(params, family=family)
    rng = random.Random(0x5165)
    gt = group.pair(group.random_point(rng), group.random_point(rng))
    return group, rng, gt.value


def _scalars(group, rng):
    """Signed, edge, carry and over-capacity scalars for one group."""
    q = group.q
    bits = q.bit_length()
    scalars = [0, 1, 2, 15, 16, 17, 31, 32, q - 1, q, (1 << bits) - 1]
    scalars += [rng.randrange(q) for _ in range(10)]
    scalars += [-k for k in scalars if k]
    scalars += [1 << bits, (1 << (bits + 9)) + 3, group.ssc.cofactor * q + 5]
    return scalars


class TestFixedBaseTable:
    def test_matches_scalar_mult(self, setup):
        group, rng, _ = setup
        curve = group.ssc.curve
        for point in (group.generator, group.random_point(rng)):
            table = FixedBaseTable(point, group.q.bit_length())
            for k in _scalars(group, rng):
                fast = table.mult(k)
                assert fast == curve.scalar_mult(point, k), k
                assert fast.to_bytes() == curve.scalar_mult(point, k).to_bytes()

    def test_tiny_order_base(self, setup):
        """Entries that are infinity are skipped, in either sign."""
        group, rng, _ = setup
        for m in (2, 3, 4, 6):
            point = _point_of_order(group, m)
            table = FixedBaseTable(point, group.q.bit_length())
            for k in list(range(-3 * m, 3 * m)) + _scalars(group, rng):
                assert table.mult(k) == point.affine_scalar_mult(k), (m, k)

    def test_layout(self, setup):
        group, _, _ = setup
        bits = group.q.bit_length()
        table = FixedBaseTable(group.generator, bits)
        assert table.width == 8
        assert table.windows == bits // 8 + 1
        assert table.table_points == 128 * table.windows


class TestGTFixedBaseTable:
    def test_matches_unitary_exp(self, setup):
        group, rng, g = setup
        table = GTFixedBaseTable(g, group.q.bit_length())
        for k in _scalars(group, rng):
            assert table.exp(k) == unitary_exp(g, k), k

    def test_tiny_order_base(self, setup):
        """``-1``, and the order-4 ``u`` (family A) or the order-3
        ``(-1 + u)/2`` (family B): unitary, with tiny cycles."""
        group, rng, _ = setup
        fp2 = group.ssc.fp2
        if group.family == "A":
            small = fp2(0, 1)
        else:
            half = pow(2, -1, fp2.p)
            small = fp2(-half, half)
        for base in (fp2(-1), small):
            table = GTFixedBaseTable(base, group.q.bit_length())
            for k in range(-8, 9):
                assert table.exp(k) == base ** k, k
            for k in _scalars(group, rng):
                assert table.exp(k) == unitary_exp(base, k), k

    def test_layout(self, setup):
        group, _, g = setup
        bits = group.q.bit_length()
        table = GTFixedBaseTable(g, bits)
        assert table.width == 5
        assert table.windows == bits // 5 + 1
        assert table.table_elements == 16 * table.windows


def test_ss512_table_sizes():
    """The one G1 table per server key is width 8 (21 windows of 128);
    the GT tables, one per warmed label, stay at width 5 (33 of 16)."""
    group = PairingGroup("ss512")
    rng = random.Random(1)
    gt = group.pair(group.random_point(rng), group.random_point(rng))
    assert group.precompute(group.generator).table_points == 2688
    assert group.precompute_gt(gt).table_elements == 528
