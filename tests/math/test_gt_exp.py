"""Unitary (cyclotomic) exponentiation must equal naive exponentiation.

``unitary_exp`` and ``GTFixedBaseTable`` are pure
accelerators for norm-1 elements of Fp2 — the GT representation the Tate
pairing's final exponentiation produces.  Every fast path must return
the exact field element the generic ``**`` computes, on every available
backend, for both beta choices (mirroring curve families A and B), and
for negative, zero and oversized exponents.  ``unitary_exp`` is also
checked against the wNAF oracle in ``tests/math/reference.py``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.math.backend import available_backends
from repro.math.field import PrimeField
from repro.math.quadratic import GTFixedBaseTable, QuadraticField, unitary_exp
from tests.math.reference import cyclotomic_square, unitary_exp_wnaf

# Two field shapes: beta = -1 (family A's extension) and a small odd
# non-residue (the general shape family B can use).
P_A = (1 << 61) - 1  # Mersenne prime, ≡ 3 mod 4 so -1 is a non-residue
P_B = 2**62 + 135    # prime; _field picks the first odd non-residue >= 3
SHAPES = {"beta_neg1_shape": (P_A, P_A - 1), "beta_odd_shape": (P_B, 3)}


def _field(p: int, beta_hint: int, backend: str = "python") -> QuadraticField:
    base = PrimeField(p, backend=backend)
    beta = beta_hint % p
    while pow(beta, (p - 1) // 2, p) == 1:
        beta += 1
    return QuadraticField(base, beta)


def _unitary(field: QuadraticField, rng: random.Random):
    """A random norm-1 element: conj(x) / x for nonzero x."""
    while True:
        x = field.random(rng)
        if not x.is_zero():
            return x.conjugate() * x.inverse()


# The python backend keeps the bare shape id; every other available
# backend runs the same tests under ``<shape>-<backend>``.
@pytest.fixture(
    params=[
        (shape, backend)
        for backend in available_backends()
        for shape in SHAPES
    ],
    ids=lambda param: (
        param[0] if param[1] == "python" else f"{param[0]}-{param[1]}"
    ),
)
def field(request):
    shape, backend = request.param
    return _field(*SHAPES[shape], backend=backend)


@pytest.fixture()
def g(field):
    return _unitary(field, random.Random(0xC4C70))


class TestCyclotomicSquare:
    def test_matches_generic_square(self, field):
        rng = random.Random(7)
        for _ in range(20):
            u = _unitary(field, rng)
            assert cyclotomic_square(u) == u.square()

    def test_preserves_unitarity(self, g):
        sq = cyclotomic_square(g)
        assert (sq * sq.conjugate()).is_one()


class TestUnitaryExp:
    @pytest.mark.parametrize(
        "exponent", [0, 1, 2, 3, 5, 17, 255, 256, 2**20 + 3]
    )
    def test_small_exponents(self, g, exponent):
        assert unitary_exp(g, exponent) == g ** exponent

    @pytest.mark.parametrize("exponent", [-1, -2, -17, -(2**30 + 5)])
    def test_negative_exponents_use_conjugate(self, g, exponent):
        assert unitary_exp(g, exponent) == (g ** -exponent).conjugate()
        assert unitary_exp(g, exponent) * unitary_exp(g, -exponent) == \
            g.field.one()

    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6])
    def test_all_widths_agree(self, g, width):
        """The ladder equals the wNAF oracle at every window width."""
        k = 0xDEADBEEFCAFEBABE
        field = g.field
        expected = unitary_exp_wnaf(g.a, g.b, k, field.beta, field.p, width)
        assert unitary_exp(g, k) == field(*expected) == g ** k

    @pytest.mark.parametrize("value", [1, -1])
    def test_real_units(self, field, value):
        """``b == 0``: the unitary elements are ``±1``."""
        unit = field(value)
        for exponent in (0, 1, 2, 3, -1, -(2**130 + 5), 2**64 + 1):
            assert unitary_exp(unit, exponent) == field(value ** (exponent % 2))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=-(2**128), max_value=2**128))
    def test_matches_pow_for_random_exponents(self, exponent):
        for backend in available_backends():
            field = _field(*SHAPES["beta_neg1_shape"], backend=backend)
            g = _unitary(field, random.Random(99))
            expected = (
                (g ** -exponent).conjugate() if exponent < 0 else g ** exponent
            )
            assert unitary_exp(g, exponent) == expected


class TestGTFixedBaseTable:
    BITS = 64

    def test_matches_unitary_exp(self, g):
        table = GTFixedBaseTable(g, self.BITS)
        rng = random.Random(3)
        for _ in range(20):
            k = rng.getrandbits(self.BITS)
            assert table.exp(k) == unitary_exp(g, k)

    def test_zero_and_one(self, g):
        table = GTFixedBaseTable(g, self.BITS)
        assert table.exp(0) == g.field.one()
        assert table.exp(1) == g

    def test_negative_exponent_conjugates(self, g):
        table = GTFixedBaseTable(g, self.BITS)
        for k in (1, 5, 0xFFFF_FFFF):
            assert table.exp(-k) == table.exp(k).conjugate()

    def test_oversized_exponent_falls_back(self, g):
        table = GTFixedBaseTable(g, self.BITS)
        k = 1 << (self.BITS + 8)
        assert table.exp(k) == unitary_exp(g, k)
        assert table.exp(-k) == unitary_exp(g, k).conjugate()

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
    def test_all_widths_agree(self, g, width):
        table = GTFixedBaseTable(g, self.BITS, width=width)
        k = 0x0123_4567_89AB_CDEF
        assert table.exp(k) == unitary_exp(g, k)

    def test_table_size_formula(self, g):
        """Signed digits: ``bits // w + 1`` windows (one for the top
        carry) of ``2^(w-1)`` entries each."""
        table = GTFixedBaseTable(g, self.BITS)
        windows = self.BITS // 5 + 1
        assert table.windows == windows == 13
        assert table.table_elements == windows * 2**4

    def test_rejects_non_unitary_base(self, field):
        x = field(2, 3)  # arbitrary, norm != 1
        assert not (x * x.conjugate()).is_one()
        with pytest.raises(ParameterError):
            GTFixedBaseTable(x, self.BITS)

    def test_rejects_bad_parameters(self, g):
        with pytest.raises(ParameterError):
            GTFixedBaseTable(g, self.BITS, width=0)
        with pytest.raises(ParameterError):
            GTFixedBaseTable(g, self.BITS, width=9)
        with pytest.raises(ParameterError):
            GTFixedBaseTable(g, 0)
