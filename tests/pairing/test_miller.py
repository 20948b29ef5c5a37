"""Edge-case tests for the affine Miller oracles in ``tests/pairing/reference.py``."""

import pytest

from repro.errors import ParameterError
from repro.pairing.params import get_parameter_set
from repro.pairing.supersingular import SupersingularCurve
from tests.pairing.reference import (
    _line_value,
    _vertical_value,
    miller_loop_denominator_free,
    miller_loop_general,
)

PARAMS = get_parameter_set("toy64")


@pytest.fixture(scope="module")
def ssc():
    return SupersingularCurve(PARAMS, "A")


@pytest.fixture(scope="module")
def ssc_b():
    return SupersingularCurve(PARAMS, "B")


class TestLineValues:
    def test_line_through_infinity_is_one(self, ssc):
        s = ssc.distort(ssc.generator)
        one = ssc.fp2.one()
        assert _line_value(ssc.curve.infinity(), ssc.generator, s.x, s.y, ssc.fp2) == one
        assert _line_value(ssc.generator, ssc.curve.infinity(), s.x, s.y, ssc.fp2) == one

    def test_vertical_through_infinity_is_one(self, ssc):
        s = ssc.distort(ssc.generator)
        assert _vertical_value(ssc.curve.infinity(), s.x, ssc.fp2) == ssc.fp2.one()

    def test_chord_line_vanishes_on_its_points(self, ssc):
        """The chord through P and Q must evaluate to zero at both
        (embedded into Fp2)."""
        p = ssc.generator
        q = ssc.generator * 5
        for point in (p, q, -(p + q)):
            value = _line_value(
                p, q, ssc.fp2.from_base(point.x), ssc.fp2.from_base(point.y),
                ssc.fp2,
            )
            assert value.is_zero()

    def test_tangent_line_vanishes_at_point(self, ssc):
        p = ssc.generator * 3
        value = _line_value(
            p, p, ssc.fp2.from_base(p.x), ssc.fp2.from_base(p.y), ssc.fp2
        )
        assert value.is_zero()

    def test_vertical_line_value(self, ssc):
        p = ssc.generator
        value = _vertical_value(p, ssc.fp2.from_base(p.x), ssc.fp2)
        assert value.is_zero()

    def test_line_between_negatives_is_vertical(self, ssc):
        p = ssc.generator * 7
        s = ssc.distort(ssc.generator * 11)
        chord = _line_value(p, -p, s.x, s.y, ssc.fp2)
        vertical = _vertical_value(p, s.x, ssc.fp2)
        assert chord == vertical


class TestLoopValidation:
    def test_evaluation_at_infinity_rejected(self, ssc):
        with pytest.raises(ParameterError):
            miller_loop_denominator_free(
                ssc.generator, ssc.ext_curve.infinity(), PARAMS.q, ssc.fp2
            )

    def test_wrong_order_rejected(self, ssc):
        s = ssc.distort(ssc.generator)
        with pytest.raises(ParameterError):
            miller_loop_denominator_free(ssc.generator, s, PARAMS.q - 1, ssc.fp2)

    def test_general_loop_rejects_bad_aux(self, ssc_b):
        s = ssc_b.distort(ssc_b.generator)
        with pytest.raises(ParameterError):
            miller_loop_general(
                ssc_b.generator, s, PARAMS.q, ssc_b.fp2,
                ssc_b.ext_curve.infinity(),
            )

    def test_loop_value_nonzero(self, ssc):
        s = ssc.distort(ssc.generator * 17)
        value = miller_loop_denominator_free(
            ssc.generator, s, PARAMS.q, ssc.fp2
        )
        assert not value.is_zero()
