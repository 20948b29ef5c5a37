"""Tests for metrics collection and the anonymity ledger."""

from repro.sim.metrics import AnonymityLedger, MetricsCollector


class TestMetricsCollector:
    def test_channel_accounting(self):
        metrics = MetricsCollector()
        metrics.record_message("a", 10)
        metrics.record_message("a", 20)
        metrics.record_message("b", 5)
        totals = {
            name: (stats.messages, stats.bytes)
            for name, stats in metrics.channels.items()
        }
        assert totals == {"a": (2, 30), "b": (1, 5)}


class TestAnonymityLedger:
    def test_fresh_ledger_knows_nothing(self):
        ledger = AnonymityLedger()
        assert ledger.server_learned_nothing()
        assert ledger.view("time-server").is_empty()

    def test_observations_accumulate(self):
        ledger = AnonymityLedger()
        ledger.record_sender_seen("escrow-agent", b"alice")
        ledger.record_receiver_seen("escrow-agent", b"bob")
        ledger.record_plaintext_seen("escrow-agent")
        ledger.record_release_time_seen("escrow-agent", b"T")
        view = ledger.view("escrow-agent")
        assert not view.is_empty()
        assert view.sender_identities == {b"alice"}
        assert view.receiver_identities == {b"bob"}
        assert view.plaintexts_seen == 1
        assert view.release_times_seen == {b"T"}

    def test_parties_independent(self):
        ledger = AnonymityLedger()
        ledger.record_sender_seen("escrow-agent", b"alice")
        assert ledger.server_learned_nothing("time-server")
        assert not ledger.view("escrow-agent").is_empty()
