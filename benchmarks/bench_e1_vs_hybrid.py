"""E1 — TRE versus the hybrid PKE+IBE construction (footnote 3).

Paper claim (§1): the generic hybrid "constructions are considerably
less efficient than our schemes in terms of computation and/or
ciphertext size.  Our schemes could have 50% reduction in most cases."

We measure, for a 32-byte session-key payload on ss512:

* ciphertext size (bytes) and group-element count;
* encrypt / decrypt wall time;
* exact operation counts (pairings, scalar mults, hash-to-group).

Expected shape: TRE carries ONE group element against the hybrid's TWO
(the 50% header reduction), and decryption does one pairing + one GT
exponentiation against the hybrid's one pairing + one scalar mult +
extra KDF plumbing.
"""

import pytest

from benchmarks.conftest import KEY_MESSAGE, RELEASE, emit
from repro.analysis import format_table
from repro.baselines.hybrid_pke_ibe import HybridPkeIbeTimedRelease
from repro.core.tre import TimedReleaseScheme
from repro.crypto.rng import seeded_rng


@pytest.fixture(scope="module")
def tre(bench_group):
    return TimedReleaseScheme(bench_group)


@pytest.fixture(scope="module")
def hybrid(bench_group):
    return HybridPkeIbeTimedRelease(bench_group)


@pytest.fixture(scope="module")
def hybrid_receiver(hybrid):
    return hybrid.generate_receiver_keypair(seeded_rng("e1-hybrid"))


def test_e1_tre_encrypt(benchmark, tre, bench_server, bench_user):
    rng = seeded_rng("e1")
    benchmark(
        tre.encrypt,
        KEY_MESSAGE,
        bench_user.public,
        bench_server.public_key,
        RELEASE,
        rng,
        verify_receiver_key=False,
    )


def test_e1_tre_encrypt_with_key_check(benchmark, tre, bench_server, bench_user):
    rng = seeded_rng("e1")
    benchmark(
        tre.encrypt,
        KEY_MESSAGE,
        bench_user.public,
        bench_server.public_key,
        RELEASE,
        rng,
        verify_receiver_key=True,
    )


def test_e1_tre_decrypt(benchmark, tre, bench_server, bench_user, bench_update):
    rng = seeded_rng("e1")
    ct = tre.encrypt(
        KEY_MESSAGE, bench_user.public, bench_server.public_key, RELEASE, rng,
        verify_receiver_key=False,
    )
    result = benchmark(tre.decrypt, ct, bench_user, bench_update)
    assert result == KEY_MESSAGE


def test_e1_hybrid_encrypt(benchmark, hybrid, bench_server, hybrid_receiver):
    rng = seeded_rng("e1")
    benchmark(
        hybrid.encrypt,
        KEY_MESSAGE,
        hybrid_receiver.public,
        bench_server.public_key,
        RELEASE,
        rng,
    )


def test_e1_hybrid_decrypt(benchmark, hybrid, bench_server, hybrid_receiver,
                           bench_update):
    rng = seeded_rng("e1")
    ct = hybrid.encrypt(
        KEY_MESSAGE, hybrid_receiver.public, bench_server.public_key, RELEASE, rng
    )
    result = benchmark(hybrid.decrypt, ct, hybrid_receiver.private, bench_update)
    assert result == KEY_MESSAGE


def test_e1_claim_table(benchmark, bench_group, tre, hybrid, bench_server,
                        bench_user, hybrid_receiver, bench_update):
    """Emit the E1 comparison rows (sizes + op counts) and check the claim."""
    rng = seeded_rng("e1-table")
    group = bench_group

    with group.counters.measure() as tre_enc_ops:
        tre_ct = tre.encrypt(
            KEY_MESSAGE, bench_user.public, bench_server.public_key, RELEASE,
            rng, verify_receiver_key=False,
        )
    with group.counters.measure() as tre_dec_ops:
        tre.decrypt(tre_ct, bench_user, bench_update)
    with group.counters.measure() as hyb_enc_ops:
        hyb_ct = hybrid.encrypt(
            KEY_MESSAGE, hybrid_receiver.public, bench_server.public_key,
            RELEASE, rng,
        )
    with group.counters.measure() as hyb_dec_ops:
        hybrid.decrypt(hyb_ct, hybrid_receiver.private, bench_update)

    tre_size = tre_ct.size_bytes(group)
    hyb_size = hyb_ct.size_bytes(group)
    tre_points = 1
    hyb_points = 2

    def fmt(ops):
        hashes = f"{ops.get('hash_to_group', 0)}H"
        if ops.get("hash_to_curve"):
            hashes += f" {ops['hash_to_curve']}h"
        return (
            f"{ops.get('pairing', 0)}P "
            f"{ops.get('scalar_mult', 0)}M "
            f"{hashes} "
            f"{ops.get('gt_exp', 0)}E"
        )

    rows = [
        ("TRE (this paper)", tre_points, tre_size, fmt(tre_enc_ops), fmt(tre_dec_ops)),
        ("hybrid PKE+IBE", hyb_points, hyb_size, fmt(hyb_enc_ops), fmt(hyb_dec_ops)),
        ("reduction", "50%", f"{100 * (1 - tre_size / hyb_size):.0f}%", "", ""),
    ]
    emit(format_table(
        ("scheme", "G1 elems", "ct bytes", "enc ops", "dec ops"),
        rows,
        title="E1: TRE vs hybrid PKE+IBE (32-byte payload, ss512) — "
              "claim: ~50% reduction (ops: P=pairing M=scalar-mult "
              "H=hash-to-G1 h=H1 map point without its cofactor "
              "E=GT-exp)",
    ))

    # The headline claim, asserted: half the group elements, and at
    # least ~40% smaller ciphertext for key-sized payloads.
    assert tre_points == hyb_points / 2
    assert tre_size < 0.62 * hyb_size
    benchmark(lambda: None)
