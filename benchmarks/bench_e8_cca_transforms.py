"""E8 — cost of the chosen-ciphertext upgrades (FO and REACT).

Paper (§5): "the Fujisaki-Okamoto Transform ... can be applied to our
schemes to obtain chosen-ciphertext secure schemes.  Alternatively, the
REACT conversion ... could be used instead."  This experiment prices
both against the plain CPA scheme.

Expected shape: FO adds one scalar multiplication to decryption (the
re-encryption check); REACT adds only hashing on both ends; ciphertext
grows by sigma/checksum bytes respectively.
"""

from benchmarks.conftest import KEY_MESSAGE, RELEASE, emit
from repro.analysis import format_table
from repro.core.fujisaki_okamoto import FOTimedReleaseScheme
from repro.core.keys import UserKeyPair
from repro.core.react import ReactTimedReleaseScheme
from repro.core.timeserver import PassiveTimeServer
from repro.core.tre import TimedReleaseScheme
from repro.crypto.rng import seeded_rng
from repro.pairing.api import PairingGroup


def _schemes(group):
    return {
        "TRE (CPA)": TimedReleaseScheme(group),
        "TRE-FO (CCA)": FOTimedReleaseScheme(group),
        "TRE-REACT (CCA)": ReactTimedReleaseScheme(group),
    }


def _fresh_receiver():
    """A new group, server, receiver and update: no cache or accepted
    update carries over from another bench or another row."""
    group = PairingGroup("ss512", family="A")
    rng = seeded_rng("e8-table")
    server = PassiveTimeServer(group, rng=rng)
    user = UserKeyPair.generate(group, server.public_key, rng)
    return group, server, user, server.publish_update(RELEASE), rng


def test_e8_claim_table():
    rows = []
    for name in ("TRE (CPA)", "TRE-FO (CCA)", "TRE-REACT (CCA)"):
        group, server, user, update, rng = _fresh_receiver()
        scheme = _schemes(group)[name]
        with group.counters.measure() as enc_ops:
            ct = scheme.encrypt(
                KEY_MESSAGE, user.public, server.public_key, RELEASE, rng,
                verify_receiver_key=False,
            )
        with group.counters.measure() as dec_ops:
            if name == "TRE (CPA)":
                opened = scheme.decrypt(ct, user, update)
            else:
                opened = scheme.decrypt(ct, user, update, server.public_key)
        assert opened == KEY_MESSAGE
        rows.append((
            name,
            ct.size_bytes(group),
            f"{enc_ops.get('pairing', 0)}P {enc_ops.get('scalar_mult', 0)}M",
            f"{dec_ops.get('pairing', 0)}P {dec_ops.get('scalar_mult', 0)}M",
            "none" if name == "TRE (CPA)" else "rejects tampering",
        ))
    emit(format_table(
        ("scheme", "ct bytes", "enc ops", "dec ops", "integrity"),
        rows,
        title="E8: CCA transform overhead on TRE (32-byte payload, ss512)",
    ))
