"""Every field-arithmetic backend must compute the same field.

The backends trade representation (Montgomery residues, gmpy2 mpz) for
speed *inside* kernels only — at every method boundary each returns the
same canonical integers the pure-python reference produces.  These
properties pin that contract on both parameter shapes (``p % 4 == 3``
family-A moduli with ``beta = -1``, and a general odd ``beta``), plus
the resolution/caching behavior of the registry itself.
"""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BackendUnavailableError, ParameterError
from repro.math.backend import (
    BACKEND_NAMES,
    available_backends,
    get_backend,
    resolve_backend_name,
)
from repro.math.backend.base import FieldBackend, LINE, ONE, VERT
from repro.math.backend.gmp import gmpy2_available
from repro.math.field import PrimeField
from repro.math.quadratic import QuadraticField
from repro.pairing.params import get_parameter_set
from tests.math.reference import inverse_mod, unitary_exp_wnaf

# toy64's p (fast) and ss512's p (production-width operands): both are
# family-A moduli, p % 4 == 3, so beta = -1 is a non-residue.  The
# replay kernel serves family A alone (u^2 = -1); BETA_ODD gives
# unitary_exp a general non-residue too.
P_TOY = get_parameter_set("toy64").p
P_SS512 = get_parameter_set("ss512").p
BETA_NEG1 = -1
BETA_ODD = 3


def reference(p: int) -> FieldBackend:
    return get_backend("python", p)


def others(p: int) -> list[FieldBackend]:
    return [
        get_backend(name, p)
        for name in available_backends()
        if name != "python"
    ]


moduli = st.sampled_from([P_TOY, P_SS512])


@st.composite
def modulus_and_values(draw, count: int):
    p = draw(moduli)
    values = [
        draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(count)
    ]
    return (p, *values)


class TestFpAgreement:
    @given(modulus_and_values(1))
    @settings(max_examples=40, deadline=None)
    def test_inv_and_pow(self, pv):
        p, x = pv
        ref = reference(p)
        for backend in others(p):
            assert backend.fp_pow(x, 65537) == ref.fp_pow(x, 65537)
            if x == 0:
                with pytest.raises(ParameterError):
                    backend.fp_inv(x)
            else:
                inv = backend.fp_inv(x)
                assert inv == ref.fp_inv(x)
                assert x * inv % p == 1

    @given(modulus_and_values(5))
    @settings(max_examples=40, deadline=None)
    def test_batch_inv(self, pv):
        p, *values = pv
        values = [v or 1 for v in values]  # zero has no inverse
        ref = reference(p)
        expected = ref.fp_batch_inv(values)
        assert expected == [ref.fp_inv(v) for v in values]
        for backend in others(p):
            assert backend.fp_batch_inv(values) == expected

    @given(modulus_and_values(1))
    @settings(max_examples=40, deadline=None)
    def test_inv_matches_extended_euclid(self, pv):
        p, x = pv
        if x:
            for name in available_backends():
                assert get_backend(name, p).fp_inv(x) == inverse_mod(x, p)

    def test_inv_rejects_zero_and_non_units(self):
        """``ParameterError`` for 0, and for a non-unit mod a composite."""
        for name in available_backends():
            field = PrimeField(15, check_prime=False, backend=name)
            assert field(7).inverse() == field(13)
            for value in (0, 15, 6, 10):
                with pytest.raises(ParameterError):
                    field(value).inverse()
            with pytest.raises(ParameterError):
                get_backend(name, P_TOY).fp_inv(P_TOY)

    def test_batch_inv_zero_raises(self):
        for name in available_backends():
            with pytest.raises(ParameterError):
                get_backend(name, P_TOY).fp_batch_inv([3, 0, 5])

    def test_batch_inv_empty(self):
        for name in available_backends():
            assert get_backend(name, P_TOY).fp_batch_inv([]) == []


def odd_beta(p: int) -> int:
    """The first odd quadratic non-residue ``>= 3`` modulo ``p``."""
    beta = BETA_ODD
    while pow(beta, (p - 1) // 2, p) == 1:
        beta += 2
    return beta


def unitary(p: int, beta: int, a: int, b: int) -> tuple[int, int]:
    """``conj(x)/x = conj(x)^2 / norm(x)`` for ``x = a + bu`` (norm 1)."""
    norm = (a * a - beta * b * b) % p
    if norm == 0:
        a, b, norm = 1, 0, 1
    inv_norm = pow(norm, -1, p)
    return (a * a + beta * b * b) * inv_norm % p, -2 * a * b * inv_norm % p


class TestFp2Agreement:
    @given(
        modulus_and_values(2),
        st.sampled_from(["beta_neg1", "beta_odd"]),
        st.integers(min_value=-(1 << 400), max_value=1 << 400),
    )
    @settings(max_examples=40, deadline=None)
    def test_unitary_exp(self, pv, shape, exponent):
        """Every backend's ladder equals the wNAF oracle and naive ``**``.

        Exponents reach 2^400, past ss512's 352-bit cofactor ``c``.
        """
        p, a, b = pv
        beta = BETA_NEG1 if shape == "beta_neg1" else odd_beta(p)
        ua, ub = unitary(p, beta, a, b)
        assert (ua * ua - beta * ub * ub) % p == 1
        expected = unitary_exp_wnaf(ua, ub, exponent, beta, p)
        fp2 = QuadraticField(PrimeField(p), beta)
        naive = fp2(ua, ub) ** exponent
        assert (naive.a, naive.b) == expected
        for name in available_backends():
            backend = get_backend(name, p)
            assert backend.unitary_exp(ua, ub, exponent, beta) == expected

    def test_unitary_exp_zero_exponent(self):
        for name in available_backends():
            backend = get_backend(name, P_TOY)
            assert backend.unitary_exp(5, 7, 0, BETA_NEG1) == (1, 0)


class TestLineKernels:
    """The replay kernel agrees with ``Fp2`` object arithmetic on
    synthetic step sequences.

    Full recorded-pairing identity is covered end-to-end by
    ``tests/core/test_cross_backend.py``; here the kernels get direct
    adversarial inputs (kind mixes, zero coordinates, conjugation).
    """

    def _random_steps(self, rng: random.Random, p: int, length: int):
        steps = []
        for index in range(length):
            kind = rng.choice([LINE, LINE, LINE, VERT, ONE])
            steps.append((
                index % 2 == 1,
                kind,
                rng.randrange(p) if kind != ONE else 0,
                rng.randrange(p) if kind == LINE else 0,
                rng.randrange(p) if kind == LINE else 0,
            ))
        return tuple(steps)

    @staticmethod
    def _object_replay(p: int, tasks) -> tuple[int, int]:
        """The replay in ``Fp2`` object arithmetic: an independent oracle."""
        fp2 = QuadraticField(PrimeField(p), BETA_NEG1)
        f = fp2.one()
        for index, step in enumerate(tasks[0][0]):
            if not step[0]:
                f = f.square()
            for steps, sxa, sxb, sya, syb, conjugate in tasks:
                _, kind, xv, yv, slope = steps[index]
                sx, sy = fp2(sxa, sxb), fp2(sya, syb)
                if kind == LINE:
                    value = (sy - fp2(yv)) - (sx - fp2(xv)) * slope
                elif kind == VERT:
                    value = sx - fp2(xv)
                else:
                    continue
                f = f * (value.conjugate() if conjugate else value)
        return f.a, f.b

    def _assert_agreement(self, p: int, tasks) -> None:
        expected = self._object_replay(p, tasks)
        for name in available_backends():
            backend = get_backend(name, p)
            converted = [
                (
                    backend.convert_steps(steps),
                    *backend.convert_coords(*cs),
                    conjugate,
                )
                for steps, *cs, conjugate in tasks
            ]
            assert backend.eval_line_sequences_product(converted) == (
                expected
            ), name

    @pytest.mark.parametrize("p", [P_TOY, P_SS512])
    def test_eval_line_sequence_agreement(self, p):
        """Single pairings as one-task products, where a purely real
        ``x`` (``sxb == 0``, family A's distortion) takes the
        constant-``u`` line branch, plain and conjugated."""
        rng = random.Random(0xBEEF ^ p)
        for trial in range(8):
            steps = self._random_steps(rng, p, 24)
            sxa, sya, syb = (rng.randrange(p) for _ in range(3))
            sxb = 0 if trial % 2 else rng.randrange(p)
            conjugate = trial % 4 >= 2
            self._assert_agreement(
                p, [(steps, sxa, sxb, sya, syb, conjugate)]
            )

    @pytest.mark.parametrize("p", [P_TOY, P_SS512])
    def test_product_kernel_agreement(self, p):
        """Two aligned tasks, one conjugated."""
        rng = random.Random(0xF00D ^ p)
        steps_a = self._random_steps(rng, p, 16)
        # Same is_add schedule (the product kernel requires alignment),
        # different line coefficients.
        steps_b = tuple(
            (is_add,) + (
                (kind, rng.randrange(p), rng.randrange(p), rng.randrange(p))
                if kind == LINE
                else (kind, xv, yv, slope)
            )
            for is_add, kind, xv, yv, slope in steps_a
        )
        coords = [tuple(rng.randrange(p) for _ in range(4)) for _ in range(2)]
        self._assert_agreement(p, [
            (steps_a, *coords[0], False),
            (steps_b, *coords[1], True),
        ])


class TestRegistry:
    def test_names_and_availability(self):
        assert set(available_backends()) <= set(BACKEND_NAMES)
        assert "python" in available_backends()
        assert "montgomery" in available_backends()
        assert ("gmpy2" in available_backends()) == gmpy2_available()

    def test_resolution(self):
        assert resolve_backend_name("python") == "python"
        assert resolve_backend_name(None) in available_backends()
        assert resolve_backend_name("auto") in available_backends()
        expected_auto = "gmpy2" if gmpy2_available() else "python"
        assert resolve_backend_name("auto") == expected_auto

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            resolve_backend_name("fpga")
        with pytest.raises(ParameterError):
            get_backend("fpga", P_TOY)

    def test_explicit_gmpy2_unavailable_raises(self):
        if gmpy2_available():
            pytest.skip("gmpy2 installed; unavailability path not reachable")
        with pytest.raises(BackendUnavailableError):
            get_backend("gmpy2", P_TOY)

    def test_instances_cached_per_name_and_modulus(self):
        a = get_backend("montgomery", P_TOY)
        b = get_backend("montgomery", P_TOY)
        c = get_backend("montgomery", P_SS512)
        assert a is b
        assert a is not c

    def test_backend_instance_passthrough(self):
        backend = get_backend("montgomery", P_TOY)
        assert get_backend(backend, P_TOY) is backend
        with pytest.raises(ParameterError):
            get_backend(backend, P_SS512)  # modulus mismatch

    def test_montgomery_requires_odd_modulus(self):
        with pytest.raises(ParameterError):
            get_backend("montgomery", 10)

    @pytest.mark.skipif(
        not hasattr(os, "register_at_fork"), reason="no fork hooks"
    )
    def test_gmpy2_skip_marker(self):
        """gmpy2 coverage self-documents: skipped when not installed."""
        if not gmpy2_available():
            pytest.skip("gmpy2 not installed; backend auto-excluded")
        assert get_backend("gmpy2", P_TOY).name == "gmpy2"
