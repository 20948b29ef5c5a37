"""Replay the pinned client schedule against ``schedule.json``.

``generate_schedule.py`` plays one seeded scenario through the client's
retry loop, failover sweep, breakers, backoff, announce wake-ups,
catch-up and health probes, and through the node's crash, restart, stop
and start.  A refactor of any of them must leave every request frame,
outcome class, backoff draw, virtual timestamp and counter where the
committed transcript has it.  The coverage tests check that the
committed transcript really exercises each path it is meant to pin.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from tests.service.generate_schedule import run_schedule

DOC = json.loads(pathlib.Path(__file__).with_name("schedule.json").read_text())


def ops(doc):
    """``{op name: its closing entry}`` for every operation."""
    return {
        entry["op"]: entry
        for entry in doc["log"]
        if entry.get("event") in ("end", "raise")
    }


@pytest.fixture(scope="module")
def replay():
    # Through JSON, so tuples and lists compare the way they were stored.
    return json.loads(json.dumps(run_schedule()))


def test_log_matches_entry_by_entry(replay):
    for index, (got, want) in enumerate(zip(replay["log"], DOC["log"])):
        assert got == want, f"log entry {index} differs"
    assert len(replay["log"]) == len(DOC["log"])


def test_counters_match(replay):
    for key in ("stats", "breakers", "nodes", "faults", "cached", "finished_at"):
        assert replay[key] == DOC[key], key


class TestCoverage:
    def test_faults_of_every_kind_were_injected(self):
        for kind in ("dropped", "delayed", "duplicated", "corrupted"):
            assert sum(plan[kind] for plan in DOC["faults"]) > 0, kind

    def test_failover_and_breaker_trips(self):
        assert DOC["stats"]["failovers"] > 0
        assert DOC["stats"]["breaker_trips"] > 0
        dead = [e for e in DOC["log"] if e.get("source") == "dead"]
        assert dead and all(
            e["outcome"] == "ServiceUnavailableError" for e in dead
        )

    def test_deadline_expires(self):
        assert ops(DOC)["get_update 50 within 2s"]["error"] == (
            "ServiceTimeoutError"
        )

    def test_announce_lands_mid_backoff(self):
        """Epoch 4's fetch returns at its announce, inside a backoff."""
        end = ops(DOC)["get_update 4"]
        assert end["at"] == 4.0
        before = [
            e for e in DOC["log"] if "backoff" in e and e["at"] < end["at"]
        ]
        assert before[-1]["at"] + before[-1]["delay"] > end["at"]

    def test_catch_up_drops_the_corrupted_blob(self):
        labels = ops(DOC)["catch_up"]["result"]
        assert "epoch:000000000001" not in labels
        assert "epoch:000000000000" in labels
        assert "epoch:000000000002" in labels
        assert DOC["stats"]["rejected"] > 0

    def test_health_of_a_dead_source_raises(self):
        assert ops(DOC)["health 1"]["error"] == "ServiceUnavailableError"
        assert ops(DOC)["health 0"]["result"]["status"] == "ok"

    def test_outage_is_ridden_out_and_the_node_restored(self):
        assert ops(DOC)["get_update during outage"]["event"] == "end"
        restart = [e for e in DOC["log"] if e.get("event") == "restart"]
        assert restart[0]["restored"] > 0
        assert DOC["nodes"]["primary"]["restarts"] == 1
        assert DOC["nodes"]["primary"]["crashes"] == 1
