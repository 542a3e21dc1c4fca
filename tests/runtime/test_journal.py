"""Tests for the append-only run journal and journal-based recovery."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.journal import (
    journal_run,
    read_journal,
    read_journal_ex,
    recover_run,
)
from repro.storage import (
    MemoryBackend,
    RecordJournal,
    SegmentBackend,
    StorageCorruptionError,
    StorageError,
)
from repro.storage.segment import _frame
from repro.workflow import RunGenerator, instances_isomorphic
from repro.workflow.errors import RecoveryError
from repro.workloads import paper_examples

TORN = '{"type": "event", "index": 99, "ev'  # a crash mid-write


def framed(*records):
    """Journal lines as a store writes them: CRC frame, JSON, newline."""
    return [_frame(json.dumps(record, sort_keys=True)) for record in records]


def damaged(line):
    """*line* with one payload byte changed: its CRC no longer matches."""
    middle = len(line) // 2
    return line[:middle] + ("x" if line[middle] != "x" else "y") + line[middle + 1 :]


def memory_records(run, snapshot_every=10):
    """The records :func:`journal_run` writes, via a memory store."""
    store = MemoryBackend().store("run")
    journal_run(run, store, snapshot_every=snapshot_every)
    return store.read()[0]


def torn_file(run, tmp_path):
    """A file journal of *run* whose write of one more record was torn."""
    path = tmp_path / "run.journal"
    journal_run(run, path, snapshot_every=None)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(TORN)
    return path


class TestReadJournal:
    def test_round_trip_records(self, approval_run):
        kinds = [r["type"] for r in memory_records(approval_run, snapshot_every=2)]
        assert kinds[0] == "begin"
        assert kinds[-1] == "end"
        assert kinds.count("event") == 4
        assert kinds.count("snapshot") == 2  # after events 2 and 4

    def test_torn_tail_line_dropped(self, approval_run, tmp_path):
        records = read_journal(torn_file(approval_run, tmp_path))
        assert all(r.get("index") != 99 for r in records)

    def test_malformed_interior_line_raises(self):
        begin, middle, end = framed({"type": "begin"}, {"type": "x"}, {"type": "end"})
        for interior in ("not json\n", damaged(middle), '{"type": "event"}\n'):
            with pytest.raises(StorageCorruptionError, match="mid-log"):
                read_journal([begin, interior, end])

    def test_untyped_interior_record_raises(self):
        # Only a *trailing* untyped line is tolerated (torn write);
        # anywhere else it is corruption.
        with pytest.raises(StorageCorruptionError, match="not a typed record"):
            read_journal(framed({"no_type": 1}, {"type": "end"}))

    def test_file_sink(self, approval_run, tmp_path):
        path = tmp_path / "run.journal"
        journal_run(approval_run, path)
        records = read_journal(path)
        assert len(records) >= 6  # begin + 4 events + end
        # The one durable format: the file is a segment store's log.
        assert path.read_text().splitlines(keepends=True) == framed(*records)
        assert SegmentBackend(tmp_path).read_records("run") == (records, [])

    def test_writer_rejects_use_after_close(self):
        writer = RecordJournal(MemoryBackend().store("run"))
        writer.close()
        with pytest.raises(StorageError, match="closed"):
            writer.end()


class TestReadJournalEx:
    def test_clean_journal_has_no_warnings(self, approval_run, tmp_path):
        path = tmp_path / "run.journal"
        journal_run(approval_run, path, snapshot_every=None)
        records, warnings = read_journal_ex(path)
        assert warnings == []
        assert records[-1]["type"] == "end"

    def test_torn_tail_is_reported_not_raised(self, approval_run, tmp_path):
        path = torn_file(approval_run, tmp_path)
        written = path.read_bytes()
        records, warnings = read_journal_ex(path)
        assert all(r.get("index") != 99 for r in records)
        assert len(warnings) == 1
        assert "torn final record" in warnings[0]
        assert path.read_bytes() == written  # a reader never writes

    def test_untyped_tail_is_reported_not_raised(self):
        records, warnings = read_journal_ex(framed({"type": "begin"}, {"no_type": 1}))
        assert records == [{"type": "begin"}]
        assert len(warnings) == 1
        assert "not a typed record" in warnings[0]

    def test_corrupt_tail_is_reported_not_raised(self):
        begin, end = framed({"type": "begin"}, {"type": "end"})
        records, warnings = read_journal_ex([begin, damaged(end)])
        assert records == [{"type": "begin"}]
        assert len(warnings) == 1
        assert "CRC mismatch" in warnings[0]


class TestFsyncContract:
    """``fsync`` durability upgrades flush-per-record to fsync-per-record."""

    @staticmethod
    def count_fsyncs(monkeypatch):
        synced = []
        monkeypatch.setattr(
            "repro.storage.segment.os.fsync", lambda fd: synced.append(fd)
        )
        return synced

    def test_fsync_called_once_per_record(self, approval_run, tmp_path, monkeypatch):
        synced = self.count_fsyncs(monkeypatch)
        backend = SegmentBackend(tmp_path, durability="fsync")
        writer = RecordJournal(backend.store("run"), snapshot_every=None)
        writer.begin(approval_run.initial)
        for index, event in enumerate(approval_run.events):
            writer.record_event(index, event)
        writer.end()
        writer.close()
        # begin + 4 events + end: one barrier per acknowledged record.
        # The seal's own barrier finds nothing unsynced and skips.
        per_record = 6
        assert len(synced) == per_record
        assert len(backend.read_records("run")[0]) == per_record

    def test_default_is_flush_only(self, approval_run, tmp_path, monkeypatch):
        synced = self.count_fsyncs(monkeypatch)
        writer = RecordJournal(SegmentBackend(tmp_path).store("run"))
        writer.begin(approval_run.initial)
        writer.close()
        assert synced == []

    def test_fsync_ignored_for_memory_sinks(self, approval_run, monkeypatch):
        # A memory store has no file descriptor; its barrier is a no-op.
        synced = self.count_fsyncs(monkeypatch)
        store = MemoryBackend().store("run")
        writer = RecordJournal(store)
        writer.begin(approval_run.initial)
        writer.end()
        assert synced == []
        assert len(store.read()[0]) == 2


class TestRecoverRun:
    def test_complete_round_trip(self, approval_run):
        records = memory_records(approval_run, snapshot_every=2)
        recovered = recover_run(approval_run.program, records)
        assert recovered.complete
        assert recovered.status == "completed"
        assert recovered.events_replayed == 4
        assert recovered.snapshots_verified == 2
        assert recovered.final_instance == approval_run.final_instance

    def test_missing_begin_raises(self):
        with pytest.raises(RecoveryError, match="no begin record"):
            recover_run(paper_examples.approval_program(), framed({"type": "end"}))

    def test_version_mismatch_raises(self, approval):
        records = [{"type": "begin", "version": 999, "initial": {}}]
        with pytest.raises(RecoveryError, match="unsupported journal version"):
            recover_run(approval, records)

    def test_second_begin_raises(self, approval):
        records = [
            {"type": "begin", "version": 1, "initial": {}},
            {"type": "begin", "version": 1, "initial": {}},
        ]
        with pytest.raises(RecoveryError, match="second begin"):
            recover_run(approval, records)

    def test_tampered_snapshot_detected(self):
        # The hiring program's runs carry real tuples (the approval
        # program is propositional), so an emptied snapshot diverges.
        program = paper_examples.hiring_program()
        run = RunGenerator(program, seed=0).random_run(4)
        records = memory_records(run, snapshot_every=2)
        snapshot = next(r for r in records if r["type"] == "snapshot")
        assert snapshot["instance"], "want a non-trivial snapshot"
        snapshot["instance"] = {}
        with pytest.raises(RecoveryError, match="diverges from replay"):
            recover_run(program, records)
        # ... unless verification is explicitly waived.
        recovered = recover_run(program, records, verify_snapshots=False)
        assert recovered.events_replayed == len(run)

    def test_torn_tail_surfaces_as_warning(self, approval_run, tmp_path):
        recovered = recover_run(approval_run.program, torn_file(approval_run, tmp_path))
        assert recovered.events_replayed == 4
        assert recovered.final_instance == approval_run.final_instance
        assert len(recovered.warnings) == 1
        assert "torn final record" in recovered.warnings[0]

    def test_journal_without_end_is_incomplete(self, approval):
        from repro.workflow import Event, execute

        run = execute(approval, [Event(approval.rule("e"), {})])
        store = MemoryBackend().store("run")
        writer = RecordJournal(store)
        writer.begin(run.initial)
        writer.record_event(0, run.events[0], run.instances[0])
        # No end record: the process died here.
        recovered = recover_run(approval, store.read()[0])
        assert not recovered.complete
        assert recovered.status is None
        assert recovered.events_replayed == 1


class TestJournalProperty:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), steps=st.integers(0, 8),
           snapshot_every=st.sampled_from([None, 1, 3]))
    def test_journal_round_trip_is_isomorphic(self, seed, steps, snapshot_every):
        """Any journaled random run recovers to an isomorphic final instance."""
        program = paper_examples.hiring_program()
        run = RunGenerator(program, seed=seed).random_run(steps)
        recovered = recover_run(program, memory_records(run, snapshot_every))
        assert recovered.complete
        assert recovered.events_replayed == len(run)
        assert recovered.final_instance == run.final_instance
        assert instances_isomorphic(recovered.final_instance, run.final_instance)
