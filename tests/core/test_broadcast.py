"""Broadcast TRE: one U and one payload, N per-recipient KEM headers.

The sender-facing contract is the same as single-recipient TRE —
server-passive, time-gated — plus two broadcast-specific guarantees the
tests pin down: a receiver can only open *their own* header (AEAD tag
failure on any other slot, never silent garbage), and the wire format
round-trips with a variable recipient count.
"""

import random

import pytest

from repro.core.broadcast import (
    _DEM_NONCE,
    _KEM_NONCE,
    _KEY_BYTES,
    BroadcastCiphertext,
    BroadcastTimedReleaseScheme,
)
from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.timeserver import PassiveTimeServer
from repro.core.tre import H1_TAG, H2_TAG, SHARED_H1_RECEIVERS, TimedReleaseScheme
from repro.crypto.authenc import aead_encrypt
from repro.encoding import pack_chunks
from repro.errors import (
    DecryptionError,
    EncodingError,
    ParameterError,
    UpdateVerificationError,
)
from repro.pairing.api import PairingGroup

LABEL = b"broadcast-release-T"
MESSAGE = b"one payload, many recipients" * 3


def _warm(group, receivers, server_public, label):
    """Warm ``(as_iG, label)`` for each receiver on ``group``."""
    for receiver_public in receivers:
        TimedReleaseScheme(group).precompute_sender(
            receiver_public, server_public, time_labels=[label]
        )


@pytest.fixture()
def setup(group):
    rng = random.Random(0xB40ADCA57)
    server = ServerKeyPair.generate(group, rng)
    users = [UserKeyPair.generate(group, server.public, rng) for _ in range(3)]
    ts = PassiveTimeServer(group, keypair=server)
    scheme = BroadcastTimedReleaseScheme(group)
    return scheme, server, users, ts


class TestRoundtrip:
    def test_every_recipient_decrypts_own_header(self, setup):
        scheme, server, users, ts = setup
        ct = scheme.encrypt_broadcast(
            MESSAGE, [u.public for u in users], server.public, LABEL,
            random.Random(1),
        )
        update = ts.issue_update(LABEL)
        for i, user in enumerate(users):
            assert scheme.decrypt_broadcast(ct, i, user, update) == MESSAGE

    def test_decrypt_with_update_verification(self, setup):
        scheme, server, users, ts = setup
        ct = scheme.encrypt_broadcast(
            MESSAGE, [u.public for u in users], server.public, LABEL,
            random.Random(2),
        )
        update = ts.issue_update(LABEL)
        assert (
            scheme.decrypt_broadcast(ct, 0, users[0], update, server.public) == MESSAGE
        )

    def test_single_recipient_broadcast(self, setup):
        scheme, server, users, ts = setup
        ct = scheme.encrypt_broadcast(
            MESSAGE, [users[0].public], server.public, LABEL, random.Random(3)
        )
        assert ct.recipients == 1
        assert scheme.decrypt_broadcast(ct, 0, users[0], ts.issue_update(LABEL)) == MESSAGE

    def test_empty_receivers_rejected(self, setup):
        scheme, server, _, _ = setup
        with pytest.raises(ParameterError):
            scheme.encrypt_broadcast(
                MESSAGE, [], server.public, LABEL, random.Random(4)
            )


class TestCrossRecipientRejection:
    def test_receiver_cannot_open_other_header(self, setup):
        scheme, server, users, ts = setup
        ct = scheme.encrypt_broadcast(
            MESSAGE, [u.public for u in users], server.public, LABEL,
            random.Random(5),
        )
        update = ts.issue_update(LABEL)
        for i, user in enumerate(users):
            for j in range(len(users)):
                if j == i:
                    continue
                with pytest.raises(DecryptionError):
                    scheme.open_header(ct, j, user, update)

    def test_outsider_cannot_open_any_header(self, setup, rng):
        scheme, server, users, ts = setup
        outsider = UserKeyPair.generate(
            scheme.group, server.public, random.Random(0x0075)
        )
        ct = scheme.encrypt_broadcast(
            MESSAGE, [u.public for u in users], server.public, LABEL,
            random.Random(6),
        )
        update = ts.issue_update(LABEL)
        for j in range(len(users)):
            with pytest.raises(DecryptionError):
                scheme.open_header(ct, j, outsider, update)

    def test_header_index_out_of_range(self, setup):
        scheme, server, users, ts = setup
        ct = scheme.encrypt_broadcast(
            MESSAGE, [users[0].public], server.public, LABEL, random.Random(7)
        )
        update = ts.issue_update(LABEL)
        for bad in (-1, 1, 99):
            with pytest.raises(ParameterError):
                scheme.open_header(ct, bad, users[0], update)

    def test_wrong_time_label_rejected(self, setup):
        scheme, server, users, ts = setup
        ct = scheme.encrypt_broadcast(
            MESSAGE, [users[0].public], server.public, LABEL, random.Random(8)
        )
        with pytest.raises(UpdateVerificationError):
            scheme.decrypt_broadcast(ct, 0, users[0], ts.issue_update(b"other-T"))

    def test_early_update_does_not_open(self, setup):
        # An update for a different time is the time-gate: no valid
        # update for T, no DEM key.
        scheme, server, users, ts = setup
        ct = scheme.encrypt_broadcast(
            MESSAGE, [users[0].public], server.public, LABEL, random.Random(9)
        )
        early = ts.issue_update(b"earlier-epoch")
        with pytest.raises(DecryptionError):
            scheme.open_header(ct, 0, users[0], early)


class TestSerialization:
    def test_roundtrip(self, setup):
        scheme, server, users, _ = setup
        group = scheme.group
        ct = scheme.encrypt_broadcast(
            MESSAGE, [u.public for u in users], server.public, LABEL,
            random.Random(10),
        )
        decoded = BroadcastCiphertext.from_bytes(group, ct.to_bytes(group))
        assert decoded == ct
        assert decoded.recipients == len(users)

    def test_decoded_ciphertext_decrypts(self, setup):
        scheme, server, users, ts = setup
        group = scheme.group
        ct = scheme.encrypt_broadcast(
            MESSAGE, [u.public for u in users], server.public, LABEL,
            random.Random(11),
        )
        decoded = BroadcastCiphertext.from_bytes(group, ct.to_bytes(group))
        update = ts.issue_update(LABEL)
        assert scheme.decrypt_broadcast(decoded, 1, users[1], update) == MESSAGE

    def test_too_few_chunks_rejected(self, setup):
        scheme, server, users, _ = setup
        group = scheme.group
        ct = scheme.encrypt_broadcast(
            MESSAGE, [users[0].public], server.public, LABEL, random.Random(12)
        )
        short = pack_chunks(
            group.point_to_bytes(ct.u_point), ct.time_label, ct.sealed
        )
        with pytest.raises(EncodingError):
            BroadcastCiphertext.from_bytes(group, short)

    def test_size_grows_per_header_not_per_payload(self, setup):
        scheme, server, users, _ = setup
        group = scheme.group
        ct1 = scheme.encrypt_broadcast(
            MESSAGE, [users[0].public], server.public, LABEL, random.Random(13)
        )
        ct3 = scheme.encrypt_broadcast(
            MESSAGE, [u.public for u in users], server.public, LABEL,
            random.Random(13),
        )
        growth = ct3.size_bytes(group) - ct1.size_bytes(group)
        # Two extra headers, each far smaller than a full ciphertext copy.
        assert growth < 2 * len(ct1.headers[0]) + 32
        assert growth > 0


class TestDeterminismAndFastPath:
    def test_seeded_rng_is_reproducible(self, setup):
        scheme, server, users, _ = setup
        group = scheme.group
        pubs = [u.public for u in users]
        a = scheme.encrypt_broadcast(
            MESSAGE, pubs, server.public, LABEL, random.Random(14)
        )
        b = scheme.encrypt_broadcast(
            MESSAGE, pubs, server.public, LABEL, random.Random(14)
        )
        assert a.to_bytes(group) == b.to_bytes(group)

    def test_warm_broadcast_byte_identical_to_cold(self, setup):
        scheme, server, users, _ = setup
        group = scheme.group
        pubs = [u.public for u in users]
        cold = scheme.encrypt_broadcast(
            MESSAGE, pubs, server.public, LABEL, random.Random(15),
            verify_receiver_keys=False,
        )
        _warm(group, pubs, server.public, LABEL)
        warm = scheme.encrypt_broadcast(
            MESSAGE, pubs, server.public, LABEL, random.Random(15),
            verify_receiver_keys=False,
        )
        assert warm.to_bytes(group) == cold.to_bytes(group)

    def test_warm_broadcast_runs_no_pairings(self, setup):
        scheme, server, users, _ = setup
        group = scheme.group
        pubs = [u.public for u in users]
        _warm(group, pubs, server.public, LABEL)
        with group.counters.measure() as ops:
            scheme.encrypt_broadcast(
                MESSAGE, pubs, server.public, LABEL, random.Random(16),
                verify_receiver_keys=False,
            )
        assert "pairing" not in ops
        assert "hash_to_group" not in ops
        assert ops.get("gt_fixed_base") == len(users)


# ----------------------------------------------------------------------
# Sender keys against a per-recipient oracle.  Cold sets of
# SHARED_H1_RECEIVERS or more share one H1(T), one r·H1(T) and one line
# recording; smaller ones pair each receiver on H1's map point.  Every
# header must still equal the one built from ê(r·as_iG, H1(T))
# recipient by recipient.
# ----------------------------------------------------------------------

ORACLE_LABEL = b"broadcast-oracle-T"


@pytest.fixture(scope="module", params=["A", "B"])
def oracle_keys(request):
    group = PairingGroup("toy64", family=request.param)
    rng = random.Random(0x0AC1E)
    server = ServerKeyPair.generate(group, rng)
    users = [UserKeyPair.generate(group, server.public, rng) for _ in range(5)]
    return group, server, users


@pytest.fixture()
def oracle_setup(oracle_keys):
    """Each test starts cold: warm pairings live on the shared group."""
    oracle_keys[0].clear_precomputations()
    return oracle_keys


def _oracle_bytes(group, server_public, receivers, seed) -> bytes:
    """The ciphertext built from one ``ê(r·as_iG, H1(T))`` per recipient."""
    rng = random.Random(seed)
    r = group.random_scalar(rng)
    dem_key = rng.randbytes(_KEY_BYTES)
    u_point = group.mul(server_public.generator, r)
    header_ad = group.point_to_bytes(u_point) + ORACLE_LABEL
    h_t = group.hash_to_g1(ORACLE_LABEL, tag=H1_TAG)
    headers = []
    for receiver_public in receivers:
        k = group.pair(group.mul(receiver_public.as_generator, r), h_t)
        wrap_key = group.mask_bytes(k, _KEY_BYTES, tag=H2_TAG)
        headers.append(aead_encrypt(wrap_key, _KEM_NONCE, dem_key, header_ad))
    sealed = aead_encrypt(dem_key, _DEM_NONCE, MESSAGE, ORACLE_LABEL)
    ct = BroadcastCiphertext(u_point, ORACLE_LABEL, tuple(headers), sealed)
    return ct.to_bytes(group)


class TestSenderKeysOracle:
    @pytest.mark.parametrize(
        "n", sorted({1, 2, SHARED_H1_RECEIVERS - 1, SHARED_H1_RECEIVERS, 5})
    )
    @pytest.mark.parametrize("warm", ["cold", "warm", "mixed"])
    def test_matches_per_recipient_oracle(self, oracle_setup, n, warm):
        group, server, users = oracle_setup
        receivers = [user.public for user in users[:n]]
        warmed = {
            "cold": [],
            "warm": receivers,
            "mixed": receivers[1::2],
        }[warm]
        scheme = BroadcastTimedReleaseScheme(group)
        _warm(group, warmed, server.public, ORACLE_LABEL)
        seed = 1000 * n + len(warmed)
        ct = scheme.encrypt_broadcast(
            MESSAGE, receivers, server.public, ORACLE_LABEL,
            random.Random(seed), verify_receiver_keys=False,
        )
        assert ct.to_bytes(group) == _oracle_bytes(
            group, server.public, receivers, seed
        )

    @pytest.mark.parametrize("n", [SHARED_H1_RECEIVERS, 5])
    def test_cold_set_shares_one_miller_recording(self, oracle_setup, n):
        group, server, users = oracle_setup
        receivers = [user.public for user in users[:n]]
        scheme = BroadcastTimedReleaseScheme(group)
        cached_lines = len(group._pairing_precomp)
        with group.counters.measure() as ops:
            scheme.encrypt_broadcast(
                MESSAGE, receivers, server.public, ORACLE_LABEL,
                random.Random(n), verify_receiver_keys=False,
            )
        assert ops["hash_to_group"] == 1
        assert ops["scalar_mult"] == 2
        assert ops["pairing"] == n
        if group.family == "A":
            assert ops["pairing_precomp"] == n
        else:
            # Family B has no denominator-free loop: the transient
            # precomputation falls back to direct pairings.
            assert "pairing_precomp" not in ops
        assert len(group._pairing_precomp) == cached_lines

    def test_single_cold_recipient_pairs_directly(self, oracle_setup):
        group, server, users = oracle_setup
        scheme = BroadcastTimedReleaseScheme(group)
        with group.counters.measure() as ops:
            scheme.encrypt_broadcast(
                MESSAGE, [users[0].public], server.public, ORACLE_LABEL,
                random.Random(1), verify_receiver_keys=False,
            )
        # One map point of H1(T): the cofactor rides on the exponent,
        # ê(asG, P′)^(c·r mod q), so U = rG is the one multiplication.
        assert ops["hash_to_curve"] == 1
        assert "hash_to_group" not in ops
        assert ops["scalar_mult"] == 1
        assert ops["pairing"] == 1
        assert ops["gt_exp"] == 1
        assert "pairing_precomp" not in ops

    @pytest.mark.parametrize(
        "n", [SHARED_H1_RECEIVERS - 1, SHARED_H1_RECEIVERS]
    )
    def test_threshold_switches_path_with_identical_keys(self, oracle_setup, n):
        """``n − 1`` cold receivers pair one by one on one map point of
        ``H1(T)``, ``n`` share ``r·H1(T)``; either way every key is
        ``ê(r·as_iG, H1(T))``."""
        group, server, users = oracle_setup
        points = [user.public.as_generator for user in users[:n]]
        scheme = TimedReleaseScheme(group)
        r = group.random_scalar(random.Random(n))
        cached_lines = len(group._pairing_precomp)
        with group.counters.measure() as ops:
            keys = scheme._sender_keys(points, ORACLE_LABEL, r)
        h_t = group.hash_to_g1(ORACLE_LABEL, tag=H1_TAG)
        assert keys == [group.pair(group.mul(point, r), h_t) for point in points]
        assert keys == [
            scheme._sender_key(point, (ORACLE_LABEL,), r) for point in points
        ]
        shared = n >= SHARED_H1_RECEIVERS
        assert ops.get("hash_to_group", 0) == (1 if shared else 0)
        assert ops.get("hash_to_curve", 0) == (0 if shared else 1)
        assert ops.get("scalar_mult", 0) == (1 if shared else 0)
        assert ops.get("gt_exp", 0) == (0 if shared else n)
        assert ops["pairing"] == n
        assert len(group._pairing_precomp) == cached_lines
