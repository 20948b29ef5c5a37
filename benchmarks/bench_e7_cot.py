"""E7 — conditional oblivious transfer: the interactive baseline's cost.

Paper claims (§2.2): Di Crescenzo et al.'s protocol "has a logarithmic
complexity in the time parameter", needs a round trip between *each
receiver* and the server *per message*, and is "subject to denial of
service attacks" the server cannot filter (footnote 5).

Rows: bytes moved and server group-operations per session versus the
time-parameter bit width, plus the per-receiver server work TRE avoids
entirely (its per-epoch work is one broadcast, zero per receiver).
"""

from benchmarks.conftest import emit
from repro.analysis import format_table
from repro.baselines.cot import COTTimeServer, run_cot_session, seal_message
from repro.crypto.rng import seeded_rng

TIME_BITS = (8, 16, 32, 64)


def test_e7_claim_table(toy_group):
    group = toy_group
    rows = []
    moved_by_bits = {}
    for bits in TIME_BITS:
        rng = seeded_rng(f"e7-table-{bits}")
        server = COTTimeServer(group, time_bits=bits, rng=rng)
        sealed = seal_message(group, server.transfer_public, b"m", 5, rng)
        with group.counters.measure() as ops:
            plaintext, moved = run_cot_session(group, server, sealed, 10, rng)
        assert plaintext == b"m"
        moved_by_bits[bits] = moved
        rows.append((
            bits,
            f"2^{bits}",
            moved,
            server.homomorphic_ops,
            ops.get("scalar_mult", 0),
        ))
    rows.append(("TRE", "any", "0 (no interaction)", 0, 0))
    emit(format_table(
        ("time bits", "time range", "bytes/session", "server homo-ops",
         "group ops"),
        rows,
        title="E7: COT per-receiver session cost vs time parameter — "
              "claim: O(log t) work, per-receiver interaction "
              "(TRE: none)",
    ))

    # Logarithmic in the range == linear in bits (within framing slack).
    assert moved_by_bits[64] < 2.3 * moved_by_bits[32]
    assert moved_by_bits[64] > 3 * moved_by_bits[8]


def test_e7_dos_far_future_query(toy_group):
    """Footnote 5: a far-future query costs the server as many
    homomorphic operations as a legitimate 16-bit session and returns no
    plaintext, so the server cannot tell it apart and refuse it."""
    rng = seeded_rng("e7-dos")
    sessions = {}
    for name, release, now in (("legitimate", 5, 10), ("far future", 2**16 - 1, 0)):
        server = COTTimeServer(toy_group, time_bits=16, rng=rng)
        sealed = seal_message(toy_group, server.transfer_public, b"m", release, rng)
        plaintext, _ = run_cot_session(toy_group, server, sealed, now, rng)
        sessions[name] = (plaintext, server.homomorphic_ops)
    assert sessions["legitimate"] == (b"m", 80)
    assert sessions["far future"] == (None, 80)
