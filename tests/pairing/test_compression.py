"""Tests for compressed G1 point encoding."""

import pytest

from repro.errors import EncodingError, NotOnCurveError, ReproError
from repro.math.modular import is_quadratic_residue


class TestCompressedEncoding:
    def test_roundtrip(self, any_group, rng):
        for _ in range(10):
            point = any_group.random_point(rng)
            blob = any_group.point_to_bytes_compressed(point)
            assert any_group.point_from_bytes_compressed(blob) == point

    def test_size_is_half_plus_one(self, group):
        assert group.compressed_point_bytes == (group.point_bytes + 1) // 2

    def test_infinity_roundtrip(self, group):
        blob = group.point_to_bytes_compressed(group.identity())
        assert group.point_from_bytes_compressed(blob).is_infinity

    def test_parity_distinguishes_negation(self, group, rng):
        point = group.random_point(rng)
        b1 = group.point_to_bytes_compressed(point)
        b2 = group.point_to_bytes_compressed(-point)
        assert b1 != b2
        assert b1[1:] == b2[1:]  # same x
        assert group.point_from_bytes_compressed(b2) == -point

    def test_bad_prefix_rejected(self, group, rng):
        blob = bytearray(group.point_to_bytes_compressed(group.random_point(rng)))
        blob[0] = 0x05
        with pytest.raises(EncodingError):
            group.point_from_bytes_compressed(bytes(blob))

    def test_bad_length_rejected(self, group):
        with pytest.raises(EncodingError):
            group.point_from_bytes_compressed(b"\x02\x01")

    def test_non_curve_x_rejected(self, group, rng):
        # Find an x that does not lift to a point (family A: half of Fp).
        for candidate in range(2, 200):
            x = group.ssc.fp(candidate)
            rhs = x.square() * x + group.ssc.curve.a * x + group.ssc.curve.b
            if not rhs.is_zero() and not is_quadratic_residue(rhs.value, group.ssc.fp.p):
                blob = b"\x02" + x.to_bytes()
                with pytest.raises((NotOnCurveError, ReproError)):
                    group.point_from_bytes_compressed(blob)
                return
        pytest.skip("no non-liftable x found in range")

    def test_malformed_infinity_rejected(self, group):
        blob = b"\x00" + b"\x01" * (group.compressed_point_bytes - 1)
        with pytest.raises(EncodingError):
            group.point_from_bytes_compressed(blob)

    def test_update_fits_in_compressed_form(self, group, server):
        """The broadcast payload can ship compressed: point + label."""
        update = server.publish_update(b"compressed-T")
        blob = group.point_to_bytes_compressed(update.point)
        restored = group.point_from_bytes_compressed(blob)
        from repro.core.timeserver import TimeBoundKeyUpdate

        rebuilt = TimeBoundKeyUpdate(b"compressed-T", restored)
        assert rebuilt.verify(group, server.public_key)
        assert len(blob) < len(group.point_to_bytes(update.point))
