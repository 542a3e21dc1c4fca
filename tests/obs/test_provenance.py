"""The per-run provenance log and its queries."""

from __future__ import annotations

import pytest

from repro.dataflow import Delta
from repro.obs.provenance import ProvenanceLog, ProvenanceRecord
from repro.workflow.domain import NULL
from repro.workflow.tuples import Tuple

OPENED = Tuple(("K", "grade"), ("r1", NULL))
GRADED = Tuple(("K", "grade"), ("r1", "A"))
LOGGED = Tuple(("K",), ("l1",))


def delta(changes=None):
    return Delta(changes or {})


def sample_log():
    log = ProvenanceLog()
    log.record(
        0, "open", "sue", delta({"Req": {"r1": (None, OPENED)}}), {"sue", "bob"}
    )
    log.record(
        1,
        "review",
        "bob",
        delta({"Req": {"r1": (OPENED, GRADED)}, "Log": {"l1": (None, LOGGED)}}),
        {"bob"},
    )
    log.record(2, "purge", "sue", delta({"Req": {"r1": (GRADED, None)}}), {"sue"})
    return log


class TestRecording:
    def test_actions_read_off_the_delta(self):
        log = sample_log()
        assert log.records()[0].touched == (("Req", "r1", "insert"),)
        assert ("Req", "r1", "update") in log.records()[1].touched
        assert log.records()[2].touched == (("Req", "r1", "delete"),)

    def test_filled_is_recorded_but_not_cited(self):
        log = sample_log()
        assert [record.filled for record in log.records()] == [
            (),
            (("Req", "r1", "grade"),),
            (),
        ]
        assert all("filled" not in citation for citation in log.to_dicts())

    def test_visible_to_is_sorted_and_deduplicated(self):
        log = ProvenanceLog()
        record = log.record(0, "r", "p", delta(), ["zoe", "amy", "zoe"])
        assert record.visible_to == ("amy", "zoe")

    def test_seqs_must_be_contiguous(self):
        log = ProvenanceLog()
        with pytest.raises(ValueError):
            log.record(1, "r", "p", delta(), ["p"])
        log.record(0, "r", "p", delta(), ["p"])
        with pytest.raises(ValueError):
            log.record(0, "r", "p", delta(), ["p"])

    def test_length_and_get(self):
        log = sample_log()
        assert len(log) == 3
        assert log.get(1).rule == "review"
        assert log.get(99) is None
        assert log.get(-1) is None


class TestQueries:
    def test_events_touching_relation(self):
        log = sample_log()
        assert log.events_touching("Req") == (0, 1, 2)
        assert log.events_touching("Log") == (1,)
        assert log.events_touching("Nope") == ()

    def test_events_touching_key(self):
        log = sample_log()
        assert log.events_touching("Req", "r1") == (0, 1, 2)
        assert log.events_touching("Log", "l1") == (1,)
        assert log.events_touching("Req", "other") == ()

    def test_events_visible_to(self):
        log = sample_log()
        assert log.events_visible_to("sue") == (0, 2)
        assert log.events_visible_to("bob") == (0, 1)
        assert log.events_visible_to("eve") == ()

    def test_citations_skip_unknown_seqs(self):
        log = sample_log()
        citations = log.citations([2, 0, 99, -1, 2])
        assert [c["seq"] for c in citations] == [0, 2]
        assert citations[0]["rule"] == "open"

    def test_to_dicts_round_trips_json_safely(self):
        import json

        log = sample_log()
        payload = json.dumps(log.to_dicts())
        assert json.loads(payload)[1]["touched"][0]["action"] in (
            "insert",
            "update",
            "delete",
        )

    def test_record_carries_span_id(self):
        log = ProvenanceLog()
        record = log.record(0, "r", "p", delta(), ["p"], span_id=42)
        assert record.span_id == 42
        assert log.to_dicts()[0]["span_id"] == 42
        bare = ProvenanceRecord(0, "r", "p", (), ("p",))
        assert "span_id" not in bare.to_dict()


class TestOfflineRebuild:
    def test_run_provenance_replays_a_run(self, approval_run):
        from repro.core.explain import run_provenance

        log = run_provenance(approval_run)
        assert len(log) == len(approval_run.events)
        for seq, (record, event) in enumerate(zip(log.records(), approval_run.events)):
            assert record.seq == seq
            assert record.rule == event.rule.name
            assert record.peer == event.peer
            assert event.peer in record.visible_to

    def test_offline_visibility_matches_run_views(self, approval_run):
        from repro.core.explain import run_provenance

        log = run_provenance(approval_run)
        for peer in approval_run.program.schema.peers:
            # Every event the peer observes as its own is visible to it.
            for index in approval_run.visible_indices(peer):
                assert index in log.events_visible_to(peer)
