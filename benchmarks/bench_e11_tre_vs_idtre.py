"""E11 — TRE versus ID-TRE: cost and the escrow boundary.

Paper (§5.2/§5.3): ID-TRE needs no receiver certificates and decrypts
with a single pairing (cheaper), but "key escrow is inherent" — the
server can read everything.  TRE costs one GT exponentiation more at
decryption and needs a CA, but "only a receiver would be able to know
the decryption keys of the messages sent to him and nobody else".

Rows: encrypt/decrypt op counts and sizes for both schemes, plus the
escrow outcome (can the server decrypt?).
"""

from benchmarks.conftest import KEY_MESSAGE, RELEASE, emit
from repro.analysis import format_table
from repro.core.idtre import IdentityTimedReleaseScheme
from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.timeserver import PassiveTimeServer
from repro.core.tre import TimedReleaseScheme
from repro.crypto.rng import seeded_rng

ALICE = b"alice@example.com"


def test_e11_claim_table(bench_group):
    group = bench_group
    rng = seeded_rng("e11")
    master = ServerKeyPair.generate(group, rng)
    server = PassiveTimeServer(group, keypair=master)
    tre = TimedReleaseScheme(group)
    idtre = IdentityTimedReleaseScheme(group)
    user = UserKeyPair.generate(group, master.public, rng)
    alice_key = idtre.extract_user_key(master, ALICE)
    update = server.publish_update(RELEASE)

    with group.counters.measure() as tre_enc:
        tre_ct = tre.encrypt(
            KEY_MESSAGE, user.public, master.public, RELEASE, rng,
            verify_receiver_key=False,
        )
    with group.counters.measure() as tre_dec:
        assert tre.decrypt(tre_ct, user, update) == KEY_MESSAGE
    with group.counters.measure() as id_enc:
        id_ct = idtre.encrypt(KEY_MESSAGE, ALICE, master.public, RELEASE, rng)
    with group.counters.measure() as id_dec:
        assert idtre.decrypt(id_ct, alice_key, update) == KEY_MESSAGE

    server_reads_tre = (
        tre.decrypt(tre_ct, master.private, update) == KEY_MESSAGE
    )
    server_reads_idtre = (
        idtre.server_decrypt(id_ct, master, ALICE) == KEY_MESSAGE
    )

    def fmt(ops):
        return (
            f"{ops.get('pairing', 0)}P {ops.get('scalar_mult', 0)}M "
            f"{ops.get('gt_exp', 0)}E"
        )

    rows = [
        ("TRE", fmt(tre_enc), fmt(tre_dec), tre_ct.size_bytes(group),
         "CA on aG", "NO" if not server_reads_tre else "YES"),
        ("ID-TRE", fmt(id_enc), fmt(id_dec), id_ct.size_bytes(group),
         "none (identity)", "YES" if server_reads_idtre else "NO"),
    ]
    emit(format_table(
        ("scheme", "enc ops", "dec ops", "ct bytes", "certificates",
         "server can decrypt"),
        rows,
        title="E11: TRE vs ID-TRE — claim: same single broadcast; ID-TRE "
              "drops certificates but escrow is inherent",
    ))
    assert not server_reads_tre
    assert server_reads_idtre
    assert id_dec.get("gt_exp", 0) == 0  # single pairing, no exponentiation
    assert tre_dec.get("gt_exp", 0) == 1
