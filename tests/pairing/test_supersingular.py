"""Tests for the supersingular curve families and distortion maps."""

import json
import pathlib
import random

import pytest

from repro.core.hybrid_tre import HybridTimedReleaseScheme, HybridTRECiphertext
from repro.core.keys import ServerKeyPair, ServerPublicKey, UserKeyPair, UserPublicKey
from repro.core.timeserver import PassiveTimeServer
from repro.ec.point import CurvePoint
from repro.errors import NotInSubgroupError, ParameterError
from repro.math.backend import available_backends
from repro.pairing.api import PairingGroup
from repro.pairing.params import get_parameter_set
from repro.pairing.supersingular import FAMILY_A, FAMILY_B, SupersingularCurve
from repro.service import wire
from repro.service.client import ResilientTimeClient

PARAMS = get_parameter_set("toy64")


@pytest.fixture(scope="module", params=[FAMILY_A, FAMILY_B])
def ssc(request):
    return SupersingularCurve(PARAMS, request.param)


class TestConstruction:
    def test_unknown_family_raises(self):
        with pytest.raises(ParameterError):
            SupersingularCurve(PARAMS, "C")

    def test_curve_equations(self):
        a = SupersingularCurve(PARAMS, FAMILY_A)
        assert a.curve.a.value == 1 and a.curve.b.value == 0
        b = SupersingularCurve(PARAMS, FAMILY_B)
        assert b.curve.a.value == 0 and b.curve.b.value == 1

    def test_generator_in_subgroup(self, ssc):
        assert ssc.in_subgroup(ssc.generator)
        assert not ssc.generator.is_infinity

    def test_generator_deterministic(self, ssc):
        again = SupersingularCurve(PARAMS, ssc.family)
        assert again.generator == ssc.generator

    def test_families_have_distinct_generators(self):
        a = SupersingularCurve(PARAMS, FAMILY_A)
        b = SupersingularCurve(PARAMS, FAMILY_B)
        assert a.generator.curve != b.generator.curve


class TestGroupOrder:
    def test_curve_order_is_p_plus_one(self, ssc):
        # #E(Fp) = p + 1 for supersingular curves: any point times p+1 = O.
        rng = random.Random(1)
        for _ in range(5):
            point = ssc.curve.random_point(rng)
            assert (point * (PARAMS.p + 1)).is_infinity

    def test_subgroup_order_q(self, ssc):
        assert (ssc.generator * PARAMS.q).is_infinity
        assert not (ssc.generator * (PARAMS.q - 1)).is_infinity

    def test_clear_cofactor_lands_in_subgroup(self, ssc):
        rng = random.Random(2)
        for _ in range(5):
            cleared = ssc.clear_cofactor(ssc.curve.random_point(rng))
            assert ssc.in_subgroup(cleared)


class TestDistortionMap:
    def test_image_on_extension_curve(self, ssc):
        point = ssc.generator
        image = ssc.distort(point)
        assert ssc.ext_curve.contains(image.x, image.y)

    def test_image_linearly_independent(self, ssc):
        # phi(P) is not a scalar multiple of the embedded P: their x
        # coordinates differ as Fp2 elements for all k (spot check k=1).
        point = ssc.generator
        image = ssc.distort(point)
        embedded_x = ssc.fp2.from_base(point.x)
        assert image.x != embedded_x

    def test_distortion_is_homomorphism(self, ssc):
        p1 = ssc.generator
        p2 = ssc.generator * 7
        left = ssc.distort(p1 + p2)
        right = ssc.distort(p1) + ssc.distort(p2)
        assert left == right

    def test_distort_infinity(self, ssc):
        assert ssc.distort(ssc.curve.infinity()).is_infinity

    def test_image_order_q(self, ssc):
        image = ssc.distort(ssc.generator)
        assert (image * PARAMS.q).is_infinity


class TestSubgroupChecks:
    def test_infinity_in_subgroup(self, ssc):
        assert ssc.in_subgroup(ssc.curve.infinity())

    def test_out_of_subgroup_detected(self, ssc):
        rng = random.Random(3)
        # A random full-curve point is outside the q-subgroup w.h.p.
        for _ in range(10):
            point = ssc.curve.random_point(rng)
            if not (point * PARAMS.q).is_infinity:
                assert not ssc.in_subgroup(point)
                with pytest.raises(NotInSubgroupError):
                    ssc.ensure_in_subgroup(point)
                return
        pytest.fail("never sampled a non-subgroup point")

    def test_wrong_curve_rejected(self, ssc):
        other_family = FAMILY_B if ssc.family == FAMILY_A else FAMILY_A
        other = SupersingularCurve(PARAMS, other_family)
        assert not ssc.in_subgroup(other.generator)


# ----------------------------------------------------------------------
# The derived generator: on first read, and only where something reads it.
# ----------------------------------------------------------------------

SUBGROUP_VECTORS = json.loads(
    (pathlib.Path(__file__).parents[1] / "vectors" / "subgroup.json").read_text()
)["sets"]
GROUP_CASES = [
    (params, family, backend)
    for params in ("toy64", "ss512")
    for family in (FAMILY_A, FAMILY_B)
    for backend in available_backends()
]


@pytest.fixture
def derivations(monkeypatch):
    """Counts ``_derive_generator`` calls from here on."""
    calls = []
    derive = SupersingularCurve._derive_generator

    def counted(self):
        calls.append(self)
        return derive(self)

    monkeypatch.setattr(SupersingularCurve, "_derive_generator", counted)
    return calls


class _UnusedTransport:
    async def request(self, payload):
        raise AssertionError("the client only ingests here")


class TestGeneratorOnFirstRead:
    @pytest.mark.parametrize("case", GROUP_CASES, ids="-".join)
    def test_a_new_group_derives_nothing(self, case):
        params, family, backend = case
        group = PairingGroup(params, family=family, backend=backend)
        assert "generator" not in vars(group.ssc)

    def test_first_read_derives_once(self, derivations):
        group = PairingGroup("toy64")
        assert derivations == []
        first = group.generator
        assert derivations == [group.ssc]
        assert group.generator is first
        assert group.ssc.generator is first
        assert derivations == [group.ssc]

    @pytest.mark.parametrize(
        "entry", SUBGROUP_VECTORS, ids=lambda e: f"{e['params']}-{e['family']}"
    )
    def test_derived_generator_matches_the_vectors(self, entry, monkeypatch):
        group = PairingGroup(entry["params"], family=entry["family"])
        (pinned,) = [p for p in entry["points"] if p["name"] == "generator"]
        assert "generator" not in vars(group.ssc)
        generator = group.generator
        assert group.point_to_bytes(generator).hex() == pinned["uncompressed"]
        assert generator.proven_order == group.q

        def no_multiply(point, scalar):
            raise AssertionError("in_group multiplied a proven point")

        monkeypatch.setattr(CurvePoint, "__mul__", no_multiply)
        assert group.in_group(generator)

    def test_server_key_generation_derives_once(self, derivations):
        group = PairingGroup("toy64")
        rng = random.Random(5)
        assert derivations == []
        first = ServerKeyPair.generate(group, rng)
        second = ServerKeyPair.generate(group, rng)
        assert derivations == [group.ssc]
        assert first.public.generator != second.public.generator

    @pytest.mark.parametrize("family", [FAMILY_A, FAMILY_B])
    def test_sender_and_receiver_never_derive(self, family, derivations):
        rng = random.Random(6)
        server_group = PairingGroup("toy64", family=family)
        server = PassiveTimeServer(server_group, rng=rng)
        assert derivations == [server_group.ssc]
        public_bytes = server.public_key.to_bytes(server_group)
        label = b"T1"

        receiver_group = PairingGroup("toy64", family=family)
        server_public = ServerPublicKey.from_bytes(receiver_group, public_bytes)
        receiver = UserKeyPair.generate(receiver_group, server_public, rng)

        sender_group = PairingGroup("toy64", family=family)
        sender = HybridTimedReleaseScheme(sender_group)
        blob = sender.encrypt(
            b"no generator read",
            UserPublicKey.from_bytes(sender_group, receiver.public.to_bytes(receiver_group)),
            ServerPublicKey.from_bytes(sender_group, public_bytes),
            label,
            rng,
        ).to_bytes(sender_group)

        client = ResilientTimeClient(
            receiver_group, server_public, [_UnusedTransport()], random.Random(7)
        )
        frame = wire.encode_message(
            wire.Announce(server.publish_update(label).to_bytes(server_group))
        )
        update = client.ingest_frame(frame)
        assert update is not None
        ciphertext = HybridTRECiphertext.from_bytes(receiver_group, blob)
        opened = HybridTimedReleaseScheme(receiver_group).decrypt(
            ciphertext, receiver, update, server_public
        )
        assert opened == b"no generator read"
        assert derivations == [server_group.ssc]
        for group in (receiver_group, sender_group):
            assert "generator" not in vars(group.ssc)
