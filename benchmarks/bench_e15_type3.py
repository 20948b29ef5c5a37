"""E15 — Type-1 (2005 substrate) versus Type-3 (modern substrate).

The paper chose supersingular curves because Type-3 pairing-friendly
families were not yet deployed.  This experiment prices the same
primitive operations and the same protocol (receiver-bound TRE) on
both substrates, plus the tlock variant, to show the construction is
substrate-independent — the property drand later relied on.

Caveat: both engines are pure Python; BN254's generic Fp12 tower is not
optimized (no cyclotomic squaring, no sparse line multiplication), so
its absolute numbers are pessimistic.  The *structural* comparison
(element sizes, op counts per protocol step) is the reproducible part.
"""

from benchmarks.conftest import KEY_MESSAGE, emit
from benchmarks.trajectory import time_median
from repro.analysis import format_table
from repro.core.tlock import DrandStyleBeacon, TimelockEncryption, Type3TimedRelease
from repro.crypto.rng import seeded_rng
from repro.pairing.bn254 import bn254


def test_e15_claim_table(bench_group):
    engine = bn254()
    beacon = DrandStyleBeacon(engine, seeded_rng("e15"))
    rng = seeded_rng("e15-table")

    def timed(fn):
        return time_median(fn) * 1000

    # Type-1 (ss512) column.
    t1 = bench_group
    p1 = t1.random_point(rng)
    s1 = t1.random_scalar(rng)
    t1_pair = timed(lambda: t1.pair(p1, t1.generator))
    t1_mul = timed(lambda: t1.mul(p1, s1))

    # Type-3 (BN254) column.
    s3 = engine.random_scalar(rng)
    t3_pair = timed(lambda: engine.pair(engine.g1, engine.g2))
    t3_g1 = timed(lambda: engine.g1 * s3)
    t3_g2 = timed(lambda: engine.g2 * s3)

    rows = [
        ("security level", "~80-bit (2005 sizing)", "~100-bit"),
        ("pairing type", "symmetric (1)", "asymmetric (3)"),
        ("update/signature bytes", t1.point_bytes, engine.point_bytes_g1),
        ("public key bytes", 2 * t1.point_bytes, engine.point_bytes_g2),
        ("GT bytes", t1.gt_bytes, engine.gt_bytes),
        ("pairing ms", f"{t1_pair:.0f}", f"{t3_pair:.0f}"),
        ("G1 smul ms", f"{t1_mul:.1f}", f"{t3_g1:.1f}"),
        ("G2 smul ms", "n/a (G1=G2)", f"{t3_g2:.1f}"),
    ]
    emit(format_table(
        ("metric", "Type-1 ss512 (paper era)", "Type-3 BN254 (drand era)"),
        rows,
        title="E15: the same TRE design on the 2005 vs modern pairing "
              "substrate (pure-Python engines; BN254 tower unoptimized)",
    ))

    # Structural claims: Type-3 updates (G1 points) are *smaller* than
    # the Type-1 ones at comparable/better security — the reason modern
    # beacons broadcast 48-64 byte signatures.
    assert engine.point_bytes_g1 < t1.point_bytes

    # And the protocol itself carries over: one round signature serves
    # both the tlock and the receiver-bound scheme.
    t3_scheme = Type3TimedRelease(engine)
    user = t3_scheme.generate_user_keypair(beacon.public_key, rng)
    tlock = TimelockEncryption(engine)
    c1 = tlock.encrypt(KEY_MESSAGE, beacon.public_key, 99, rng)
    c2 = t3_scheme.encrypt(
        KEY_MESSAGE, user, beacon.public_key, 99, rng,
        verify_receiver_key=False,
    )
    sig = beacon.publish_round(99)
    assert tlock.decrypt(c1, sig) == KEY_MESSAGE
    assert t3_scheme.decrypt(c2, user, sig) == KEY_MESSAGE
