"""Integer Jacobian kernels against the affine ``CurvePoint`` oracle.

``CurvePoint.affine_scalar_mult`` and ``CurvePoint.__add__`` share no
code with :mod:`repro.ec.jacobian`, so agreement here is independent
evidence.  The cases aim at every special branch of the kernels:
infinity inputs, ``P + P`` reaching the doubling branch, ``P + (-P)``,
and small-order points whose odd multiples, intermediate sums or
fixed-base entries are the point at infinity.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ec import jacobian
from repro.ec.precompute import FixedBaseTable
from repro.math.backend import available_backends
from repro.pairing import hashing
from repro.pairing.api import PairingGroup
from repro.pairing.miller import miller_loop_projective, record_line_sequence
from tests.pairing.reference import (
    miller_loop_denominator_free,
    record_line_sequence_affine,
)

GROUPS = [("toy64", "A"), ("toy64", "B"), ("ss512", "A"), ("ss512", "B")]


def _point_of_order(group, m):
    """A point of exact order ``m`` (``m | c``), found deterministically."""
    ssc = group.ssc
    for counter in range(200):
        base = hashing.hash_to_curve_point(ssc, b"small-order:%d" % counter)
        point = ssc.curve.scalar_mult(base, ssc.cofactor * ssc.q // m)
        if point.is_infinity or not point.affine_scalar_mult(m).is_infinity:
            continue
        if all(
            not point.affine_scalar_mult(m // prime).is_infinity
            for prime in (2, 3)
            if m % prime == 0
        ):
            return point
    raise AssertionError(f"no point of order {m}")


@pytest.fixture(scope="module", params=GROUPS, ids=lambda g: f"{g[0]}-{g[1]}")
def setup(request):
    params, family = request.param
    group = PairingGroup(params, family=family)
    small = {m: _point_of_order(group, m) for m in (2, 3, 4, 6, 12)}
    full = hashing.hash_to_curve_point(group.ssc, b"full-curve point")
    return group, small, full


def _scalars(group, rng):
    q, c = group.q, group.ssc.cofactor
    return [
        0, 1, -1, 2, 3, q - 1, q, q + 1, c, -c,
        rng.getrandbits(160), rng.getrandbits(352),
    ]


def test_small_order_points_are_what_they_claim(setup):
    group, small, _ = setup
    if group.family == "A":
        assert (small[2].x.value, small[2].y.value) == (0, 0)
    else:
        assert small[2].x.value == group.ssc.p - 1
    assert small[4].affine_scalar_mult(2) == small[2]


def test_scalar_mult_matches_oracle(setup):
    group, small, full = setup
    curve = group.ssc.curve
    rng = random.Random(7)
    points = [group.generator, full, *small.values()]
    for point in points:
        for k in _scalars(group, rng):
            expected = point.affine_scalar_mult(k)
            assert curve.scalar_mult(point, k) == expected, (point, k)


def test_small_order_edge_scalars(setup):
    group, small, _ = setup
    curve = group.ssc.curve
    for m, point in small.items():
        for k in range(-2 * m, 2 * m + 1):
            assert curve.scalar_mult(point, k) == point.affine_scalar_mult(k)
        # Large scalars: wNAF table entries (3P, 5P, ...) land on
        # infinity or on P itself.
        for k in (m * 1009 + 1, (1 << 100) + 3, (1 << 300) - 1):
            assert curve.scalar_mult(point, k) == point.affine_scalar_mult(k % m)


def test_infinity(setup):
    group, _, _ = setup
    curve = group.ssc.curve
    inf = curve.infinity()
    for k in (0, 1, 5, group.q):
        assert curve.scalar_mult(inf, k).is_infinity
    assert curve.multi_scalar_mult([(3, inf), (0, group.generator)]).is_infinity
    table = FixedBaseTable(inf, group.q.bit_length())
    assert table.mult(12345).is_infinity


def test_group_law_kernels(setup):
    """``double``/``add``/``add_affine`` against affine ``+``, including
    ``P + P``, ``P + (-P)`` and infinity operands."""
    group, small, full = setup
    curve = group.ssc.curve
    p, a = group.ssc.p, curve.int_a
    backend = group.backend
    points = [
        curve.infinity(), group.generator, full, group.generator * 5,
        -group.generator, *small.values(),
    ]

    def jac(point, scale):
        if point.is_infinity:
            return jacobian.INFINITY
        zz = scale * scale % p
        return (point.x.value * zz % p, point.y.value * zz * scale % p, scale)

    def affine(triple):
        return curve._from_ints(jacobian.normalize(backend, [triple])[0])

    for left in points:
        assert affine(jacobian.double(*jac(left, 7), p, a)) == left.double()
        for right in points:
            expected = left + right
            got = jacobian.add(*jac(left, 3), *jac(right, 11), p, a)
            assert affine(got) == expected
            if not right.is_infinity:
                got = jacobian.add_affine(
                    *jac(left, 5), right.x.value, right.y.value, p, a
                )
                assert affine(got) == expected


def test_multi_scalar_mult_small_order(setup):
    group, small, full = setup
    curve = group.ssc.curve
    rng = random.Random(11)
    pool = [group.generator, full, *small.values()]
    for _ in range(6):
        terms = [
            (rng.choice([1, 2, 3, -3, 12, group.q, rng.getrandbits(160)]),
             rng.choice(pool))
            for _ in range(rng.randrange(1, 4))
        ]
        expected = curve.infinity()
        for k, point in terms:
            expected = expected + point.affine_scalar_mult(k)
        assert curve.multi_scalar_mult(terms) == expected


@pytest.mark.parametrize("width", [1, 2, 4])
def test_fixed_base_table_on_small_order_base(setup, width):
    group, small, _ = setup
    for m, point in small.items():
        table = FixedBaseTable(point, 16, width=width)
        for k in list(range(0, 3 * m)) + [0xFFFF, -5, 1 << 20]:
            assert table.mult(k) == point.affine_scalar_mult(k), (m, k)


def test_fixed_base_table_matches_oracle(setup):
    group, _, full = setup
    rng = random.Random(13)
    for point in (group.generator, full):
        table = FixedBaseTable(point, group.q.bit_length())
        for k in _scalars(group, rng):
            if k.bit_length() <= group.q.bit_length():
                assert table.mult(k) == point.affine_scalar_mult(k)


def _rebind(group, point):
    """``point`` on ``group``'s curve, so kernels run in its backend."""
    fp = group.ssc.fp
    return group.ssc.curve.point(fp(point.x.value), fp(point.y.value))


def test_recorders_agree(setup):
    """On every backend, the kernel-based recorder produces the affine
    oracle's steps, on the subgroup generator and on small-order points
    whose loops hit vertical lines, infinity and an add step with
    ``V == P``.  On family A, the fused
    projective loop on those same cases, and every backend's ``pair``,
    ``pair_with_precomp`` and ``multi_pair`` (raw points, recorded
    lines, and both mixed in one product), equal the final
    exponentiation of the affine Miller loop."""
    group, small, _ = setup
    cases = [(group.generator, group.q)] + [(pt, m) for m, pt in small.items()]
    # 21 = 0b10101: the add step after the prefix 0b10 meets V = 4P = P
    # on a point of order 3, so the chord is the tangent at P.
    cases.append((small[3], 21))
    if group.params.name == "ss512" and group.family == "B":
        cases = cases[1:]  # the generator case is covered on family A
    expected = [record_line_sequence_affine(pt, m).steps for pt, m in cases]
    gen, q = group.generator, group.q
    p_point, q_point = gen * 5, gen * 7
    if group.family == "A":
        def oracle(left, right):
            return miller_loop_denominator_free(
                left, group.ssc.distort(right), q, group.ssc.fp2
            )

        final_exp = group.tate.final_exponentiation
        f_pq = oracle(p_point, q_point)
        direct = final_exp(f_pq)
        product = final_exp(f_pq * oracle(gen, p_point).conjugate())
        mixed = final_exp(
            f_pq
            * oracle(gen, q_point).conjugate()
            * oracle(gen, p_point).conjugate()
            * oracle(p_point, gen)
        )
        fused_expected = [
            final_exp(miller_loop_denominator_free(
                pt, group.ssc.distort(q_point), m, group.ssc.fp2
            ))
            for pt, m in cases
        ]
    for backend in available_backends():
        g = PairingGroup(group.params, family=group.family, backend=backend)
        for (point, order), steps in zip(cases, expected):
            assert record_line_sequence(_rebind(g, point), order).steps == steps
        if group.family != "A":
            continue
        left, right, base = (_rebind(g, pt) for pt in (p_point, q_point, gen))
        for (point, order), expected_value in zip(cases, fused_expected):
            fused = miller_loop_projective(
                [(_rebind(g, point), right, False)], order, g.ssc.fp2
            )
            assert g.tate.final_exponentiation(fused) == expected_value
        assert g.tate.pair(left, right) == direct
        lines = g.tate.precompute_lines(left)
        assert g.tate.pair_with_precomp(lines, right) == direct
        assert g.tate.multi_pair(
            [(left, right), (base, left)], [1, -1]
        ) == product
        assert g.tate.multi_pair(
            [(lines, right), (base, left)], [1, -1]
        ) == product
        base_lines = g.tate.precompute_lines(base)
        assert g.tate.multi_pair(
            [(left, right), (base_lines, right), (base, left), (lines, base)],
            [1, -1, -1, 1],
        ) == mixed


@pytest.mark.parametrize("backend", available_backends())
def test_backends_agree_on_toy64(backend):
    group = PairingGroup("toy64", backend=backend)
    reference = PairingGroup("toy64", backend="python")
    rng = random.Random(17)
    for _ in range(10):
        k = rng.getrandbits(200)
        assert group.generator * k == reference.generator * k


TOY = PairingGroup("toy64", family="A")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(-(1 << 200), 1 << 200))
def test_scalar_mult_property(k):
    point = hashing.hash_to_curve_point(TOY.ssc, b"property")
    assert TOY.ssc.curve.scalar_mult(point, k) == point.affine_scalar_mult(k)
