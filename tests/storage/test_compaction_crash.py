"""Compaction never loses acknowledged events, even killed mid-swap.

A compaction copies the kept lines into ``<log>.tmp``, fsyncs the copy
and renames it over the log: the rename is its one commit point.  These
tests kill the process at each step — mid-copy, after the fsync but
before the rename, after the rename but before the store reopens its
log — and prove that the next open recovers every acknowledged event
from what the kill left on disk, and sweeps the orphan ``.tmp``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.runtime.checkpoint import fast_recover
from repro.runtime.journal import begin_record, event_record, snapshot_record
from repro.storage import (
    SegmentBackend,
    StorageCorruptionError,
    StorageError,
    compact_records,
)
from repro.storage import segment
from repro.storage.segment import _frame
from repro.workflow import Event, FreshValue, Var, execute
from repro.workloads.generators import churn_program


class Killed(BaseException):
    """A process death: nothing after the kill point runs."""


def make_event(program, index):
    return Event(program.rule("make"), {Var("x"): FreshValue(1000 + index)})


def populated_store(tmp_path, events=30):
    """A store holding *events* acknowledged events and three snapshots."""
    program = churn_program()
    run = execute(program, [make_event(program, i) for i in range(events)])
    backend = SegmentBackend(tmp_path)
    store = backend.store("r1")
    store.append(begin_record(run.initial))
    for index, event in enumerate(run.events):
        store.append(event_record(index, event))
        if (index + 1) % 10 == 0:
            store.append(snapshot_record(index, index + 1, run.final_instance))
    store.sync()
    return program, backend, store, run


def acked_events(records):
    return [r for r in records if r["type"] == "event"]


def recovered_records(tmp_path, run_id="r1"):
    return SegmentBackend(tmp_path).read_records(run_id)


def kill_mid_copy(monkeypatch, whole_lines=3):
    """Kill the process while it writes the compacted copy: the copy
    holds *whole_lines* lines and half of the next."""
    real_open = open

    class DyingCopy:
        def __init__(self, handle):
            self.handle = handle
            self.written = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def write(self, text):
            if self.written == whole_lines:
                self.handle.write(text[: len(text) // 2])
                raise Killed("mid-copy")
            self.written += 1
            return self.handle.write(text)

    def opening(path, mode="r", **kwargs):
        handle = real_open(path, mode, **kwargs)
        return DyingCopy(handle) if str(path).endswith(".tmp") else handle

    monkeypatch.setattr(segment, "open", opening, raising=False)


def kill_at_rename(monkeypatch, after):
    """Kill the process just before (or just after) the rename that
    swaps the fsynced copy over the log."""
    replace = os.replace

    def replacing(source, target):
        if after:
            replace(source, target)
        raise Killed("after rename" if after else "before rename")

    monkeypatch.setattr(segment.os, "replace", replacing)


KILLS = {
    "mid-copy": kill_mid_copy,
    "after fsync, before rename": lambda mp: kill_at_rename(mp, after=False),
    "after rename, before reopen": lambda mp: kill_at_rename(mp, after=True),
}


def compact_and_die(store, monkeypatch, kill):
    """Run a compaction that the process does not survive."""
    with monkeypatch.context() as patches:
        KILLS[kill](patches)
        with pytest.raises(Killed):
            store.compact()


class TestKillDuringCompaction:
    def test_kill_before_compacted_segment_complete(self, tmp_path, monkeypatch):
        program, backend, store, run = populated_store(tmp_path)
        before, _ = store.read()
        log = store.path.read_bytes()
        compact_and_die(store, monkeypatch, "mid-copy")
        orphan = tmp_path / "r1.journal.tmp"
        assert 0 < orphan.stat().st_size < len(log)
        assert store.path.read_bytes() == log
        after, warnings = recovered_records(tmp_path)
        assert after == before and warnings == []
        assert not orphan.exists()

    def test_kill_after_fsync_before_rename(self, tmp_path, monkeypatch):
        program, backend, store, run = populated_store(tmp_path)
        before, _ = store.read()
        log = store.path.read_bytes()
        compact_and_die(store, monkeypatch, "after fsync, before rename")
        # The orphan is the whole compacted copy, yet the old log wins.
        orphan = tmp_path / "r1.journal.tmp"
        compacted = "".join(
            _frame(json.dumps(r, sort_keys=True)) for r in compact_records(before)
        )
        assert orphan.read_text() == compacted
        assert store.path.read_bytes() == log
        after, warnings = recovered_records(tmp_path)
        assert after == before and warnings == []
        assert not orphan.exists()

    def test_kill_after_rename_before_reopen(self, tmp_path, monkeypatch):
        program, backend, store, run = populated_store(tmp_path)
        before, _ = store.read()
        compact_and_die(store, monkeypatch, "after rename, before reopen")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r1.journal"]
        after, warnings = recovered_records(tmp_path)
        assert after == compact_records(before) and warnings == []
        assert acked_events(after) == acked_events(before)

    def test_compaction_then_kill_replays_identically(self, tmp_path):
        """fast_recover over a compacted store equals the uncompacted one."""
        program, backend, store, run = populated_store(tmp_path)
        before, _ = store.read()
        resumed_before = fast_recover(program, before)
        store.compact()
        store.close()
        after, warnings = recovered_records(tmp_path)
        assert warnings == []
        resumed_after = fast_recover(program, after)
        assert resumed_after.instance == resumed_before.instance
        assert resumed_after.events == resumed_before.events
        assert len(resumed_after.events) == 30
        # The compacted journal resumes from the latest snapshot: the
        # engine replays only the tail, never the whole history.
        assert resumed_after.engine_replayed == 30 - resumed_after.snapshot_position

    def test_every_acked_event_survives_any_single_kill_point(
        self, tmp_path, monkeypatch
    ):
        """Kill one compaction at each step in turn, reopening the store
        after each death and appending to it: nothing acknowledged is
        lost, and the store keeps working."""
        program, backend, store, run = populated_store(tmp_path, events=40)
        acked = acked_events(store.read()[0])
        more = execute(
            program,
            [make_event(program, i) for i in range(40 + len(KILLS))],
        )
        for number, kill in enumerate(KILLS):
            compact_and_die(store, monkeypatch, kill)
            store = SegmentBackend(tmp_path).store("r1")  # the next process
            assert not (tmp_path / "r1.journal.tmp").exists()
            got, warnings = store.read()
            assert acked_events(got) == acked and warnings == []
            index = 40 + number
            store.append(event_record(index, more.events[index]))
            acked = acked_events(store.read()[0])
        store.compact()
        store.close()
        after, _ = recovered_records(tmp_path)
        assert acked_events(after) == acked and len(acked) == 40 + len(KILLS)


class TestCompactionRefusesDamage:
    """Damage, or a line the store never appended, refuses the swap and
    leaves the old log byte-identical."""

    def test_interior_damage_after_open(self, tmp_path):
        program, backend, store, run = populated_store(tmp_path)
        lines = store.path.read_text().splitlines(keepends=True)
        middle = len(lines[1]) // 2
        flipped = "x" if lines[1][middle] != "x" else "y"
        lines[1] = lines[1][:middle] + flipped + lines[1][middle + 1 :]
        store.path.write_text("".join(lines))
        damaged = store.path.read_bytes()
        with pytest.raises(StorageCorruptionError) as compacting:
            store.compact()
        assert store.path.read_bytes() == damaged
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r1.journal"]
        store.close()
        with pytest.raises(StorageCorruptionError) as reopening:
            SegmentBackend(tmp_path).store("r1")
        assert str(reopening.value) == str(compacting.value)
        assert store.path.read_bytes() == damaged

    def test_unacknowledged_line_on_disk_refuses_the_swap(self, tmp_path):
        program, backend, store, run = populated_store(tmp_path)
        before, _ = store.read()
        # A framed, CRC-valid line the store never appended: the disk
        # and the type index disagree, so nothing may be dropped.
        stray = {"type": "event", "index": 99}
        with open(store.path, "a", encoding="utf-8") as sink:
            sink.write(_frame(json.dumps(stray, sort_keys=True)))
        log = store.path.read_bytes()
        with pytest.raises(StorageError, match="type index"):
            store.compact()
        assert store.path.read_bytes() == log
        assert not (tmp_path / "r1.journal.tmp").exists()
        after, _ = store.read()
        store.close()
        assert after == before + [stray]
