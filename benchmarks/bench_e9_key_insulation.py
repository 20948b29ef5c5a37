"""E9 — key insulation (§5.3.3): derivation cost and exposure containment.

Paper claim: "the TRE scheme proposed here achieves the key insulation
goal for free" — one scalar multiplication per epoch on the safe
device, and epoch-key decryption on the insecure device is *cheaper*
than normal decryption (one pairing, no GT exponentiation by ``a``).

Rows: safe-device derivation cost, insecure-device decryption cost vs
normal decryption, and the containment matrix (which epochs a stolen
key opens).
"""

from benchmarks.conftest import KEY_MESSAGE, emit
from repro.analysis import format_table
from repro.core.key_insulation import InsecureDevice, SafeDevice, decrypt_with_epoch_key
from repro.core.timeserver import epoch_label
from repro.core.tre import TimedReleaseScheme
from repro.crypto.rng import seeded_rng
from repro.errors import UpdateVerificationError


def test_e9_claim_table(bench_group, bench_server, bench_user):
    group = bench_group
    scheme = TimedReleaseScheme(group)
    safe = SafeDevice(group, bench_user, bench_server.public_key)
    rng = seeded_rng("e9-table")

    # Op counts for each path.
    label = epoch_label(700_000)
    ct = scheme.encrypt(
        KEY_MESSAGE, bench_user.public, bench_server.public_key, label, rng,
        verify_receiver_key=False,
    )
    update = bench_server.publish_update(label)
    with group.counters.measure() as derive_ops:
        key = safe.derive_epoch_key(update)
    with group.counters.measure() as epoch_dec_ops:
        assert decrypt_with_epoch_key(group, ct, key) == KEY_MESSAGE
    with group.counters.measure() as normal_dec_ops:
        assert scheme.decrypt(ct, bench_user, update) == KEY_MESSAGE

    def fmt(ops):
        return (
            f"{ops.get('pairing', 0)}P {ops.get('scalar_mult', 0)}M "
            f"{ops.get('gt_exp', 0)}E"
        )

    rows = [
        ("safe device: derive K_i", fmt(derive_ops), "holds a"),
        ("insecure device: epoch decrypt", fmt(epoch_dec_ops), "holds K_i only"),
        ("reference: normal decrypt", fmt(normal_dec_ops), "holds a"),
    ]
    emit(format_table(
        ("operation", "ops", "secret material"),
        rows,
        title="E9a: key-insulation costs — claim: insulation 'for free' "
              "(derivation = 1 scalar mult + verify)",
    ))

    # Containment matrix: stolen keys for epochs 0..2 of 5.
    device = InsecureDevice(group)
    ciphertexts = {}
    for i in range(5):
        lbl = epoch_label(800_000 + i)
        ciphertexts[i] = scheme.encrypt(
            KEY_MESSAGE, bench_user.public, bench_server.public_key, lbl, rng,
            verify_receiver_key=False,
        )
        if i < 3:
            device.install_epoch_key(
                safe.derive_epoch_key(bench_server.publish_update(lbl))
            )
    matrix = []
    for i in range(5):
        try:
            opened = device.decrypt(ciphertexts[i]) == KEY_MESSAGE
        except UpdateVerificationError:
            opened = False
        matrix.append((f"epoch {i}", "stolen" if i < 3 else "safe",
                       "OPENED" if opened else "sealed"))
    emit(format_table(
        ("epoch", "key status", "outcome"),
        matrix,
        title="E9b: exposure containment — stolen epoch keys open only "
              "their own epochs",
    ))
    assert [row[2] for row in matrix] == ["OPENED"] * 3 + ["sealed"] * 2
    # Epoch-path decryption avoids the GT exponentiation entirely.
    assert epoch_dec_ops.get("gt_exp", 0) == 0
    assert normal_dec_ops.get("gt_exp", 0) == 1
