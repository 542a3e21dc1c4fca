"""Tests for fast resume from a journal's latest checkpoint."""

from __future__ import annotations

import pytest

from repro.runtime.checkpoint import fast_recover
from repro.runtime.journal import journal_run, recover_run
from repro.storage import MemoryBackend
from repro.workflow import RunGenerator
from repro.workflow.errors import RecoveryError
from repro.workloads import paper_examples


@pytest.fixture
def hiring_run():
    return RunGenerator(paper_examples.hiring_program(), seed=3).random_run(7)


def journal_records(run, snapshot_every):
    store = MemoryBackend().store("run")
    journal_run(run, store, snapshot_every=snapshot_every)
    return store.read()[0]


class TestFastRecover:
    """The latest-snapshot fast path: engine work is O(tail), not O(run)."""

    def test_replays_only_the_tail(self):
        """Regression pin: 25 events, snapshots every 10 — recovery
        trusts the snapshot at event 20 and replays exactly 5 events."""
        program = paper_examples.hiring_program()
        run = RunGenerator(program, seed=7).random_run(25)
        resumed = fast_recover(program, journal_records(run, 10))
        assert resumed.snapshot_position == 20
        assert resumed.engine_replayed == 5
        assert resumed.events_total == 25
        assert resumed.complete
        assert resumed.status == "completed"
        assert resumed.instance == run.final_instance
        # The full history is still decoded for explanations/provenance.
        assert len(resumed.events) == 25
        assert resumed.initial == run.initial

    @pytest.mark.parametrize("snapshot_every", [None, 1, 2, 5])
    def test_resume_matches_final_instance(self, hiring_run, snapshot_every):
        records = journal_records(hiring_run, snapshot_every)
        resumed = fast_recover(hiring_run.program, records)
        assert resumed.events_total == len(hiring_run)
        assert resumed.instance == hiring_run.final_instance

    def test_without_snapshots_replays_everything(self, hiring_run):
        resumed = fast_recover(hiring_run.program, journal_records(hiring_run, None))
        assert resumed.snapshot_position == 0
        assert resumed.engine_replayed == len(hiring_run)
        assert resumed.instance == hiring_run.final_instance

    def test_matches_full_recovery(self, hiring_run):
        records = journal_records(hiring_run, 3)
        resumed = fast_recover(hiring_run.program, records)
        recovered = recover_run(hiring_run.program, records)
        assert resumed.instance == recovered.final_instance
        assert resumed.events_total == recovered.events_replayed

    def test_missing_begin_raises(self, hiring_run):
        with pytest.raises(RecoveryError, match="no begin record"):
            fast_recover(hiring_run.program, [{"type": "end"}])

    def test_stale_tail_event_raises(self, hiring_run):
        """A tail event that no longer applies is a recovery error."""
        records = journal_records(hiring_run, 3)
        # Duplicate the final event record: replaying it twice from the
        # snapshot must fail the engine's applicability re-check.
        last_event = [r for r in records if r["type"] == "event"][-1]
        records.insert(len(records) - 1, last_event)
        try:
            resumed = fast_recover(hiring_run.program, records)
        except RecoveryError as exc:
            assert "no longer applies on resume" in str(exc)
        else:
            # Some duplicated events are idempotently applicable; then
            # the resume simply reflects one more journaled event.
            assert resumed.events_total == len(hiring_run) + 1

    def test_torn_tail_surfaces_as_warning(self, hiring_run, tmp_path):
        path = tmp_path / "run.journal"
        journal_run(hiring_run, path, snapshot_every=2)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "event", "index": 99, "ev')
        resumed = fast_recover(hiring_run.program, path)
        assert resumed.events_total == len(hiring_run)
        assert len(resumed.warnings) == 1
        assert "torn final record" in resumed.warnings[0]

    def test_incomplete_journal_resumes_prefix(self, hiring_run):
        records = [r for r in journal_records(hiring_run, 2)  # drop the end
                   if r["type"] != "end"]
        resumed = fast_recover(hiring_run.program, records)
        assert not resumed.complete
        assert resumed.status is None
        assert resumed.instance == hiring_run.final_instance
