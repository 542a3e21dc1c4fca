"""Compaction never loses acknowledged events, even killed mid-swap.

A compaction has exactly one commit point — the atomic manifest
replace.  These tests reconstruct every distinct on-disk state a kill
can leave behind (before the compacted segment is complete, after it
but before the manifest swap, after the swap but before the old
segments are unlinked) and prove the full acknowledged history is
recovered from each of them.
"""

from __future__ import annotations

import json

import pytest

from repro.runtime.checkpoint import fast_recover
from repro.runtime.journal import begin_record, event_record, snapshot_record
from repro.storage import (
    SegmentBackend,
    StorageCorruptionError,
    StorageError,
    compact_records,
)
from repro.storage.segment import _frame
from repro.workflow import Event, FreshValue, Var, execute
from repro.workloads.generators import churn_program


def make_event(program, index):
    return Event(program.rule("make"), {Var("x"): FreshValue(1000 + index)})


def populated_store(tmp_path, events=30):
    """A multi-segment store holding *events* acknowledged events."""
    program = churn_program()
    run = execute(program, [make_event(program, i) for i in range(events)])
    backend = SegmentBackend(tmp_path, segment_bytes=1024)
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
    backend = SegmentBackend(tmp_path, segment_bytes=1024)
    return backend.read_records(run_id)


class TestKillDuringCompaction:
    def test_kill_before_compacted_segment_complete(self, tmp_path):
        program, backend, store, run = populated_store(tmp_path)
        before, _ = store.read()
        run_dir = store.path
        # The compacted segment was only half-written when the process
        # died: it is not in the manifest, so it must be swept and the
        # old segments must win.
        partial = run_dir / "seg-00000099.log"
        partial.write_text(_frame(json.dumps(before[0], sort_keys=True))[: 20])
        store.close()
        after, warnings = recovered_records(tmp_path)
        assert acked_events(after) == acked_events(before)
        assert not partial.exists()

    def test_kill_after_swap_before_unlink(self, tmp_path):
        program, backend, store, run = populated_store(tmp_path)
        before, _ = store.read()
        run_dir = store.path
        old_segments = [p for p in run_dir.iterdir() if p.name.startswith("seg-")]
        # Write the compacted segment and commit the manifest, then
        # "die" before unlinking the old segments.
        kept = compact_records(before)
        compacted = run_dir / "seg-00000099.log"
        compacted.write_text(
            "".join(_frame(json.dumps(r, sort_keys=True)) for r in kept)
        )
        manifest = run_dir / "MANIFEST"
        state = json.loads(manifest.read_text())
        state["segments"] = [compacted.name]
        manifest.write_text(json.dumps(state))
        store.close()
        after, warnings = recovered_records(tmp_path)
        assert acked_events(after) == acked_events(before)
        assert warnings == []
        # The stale segments are orphans now; reopening swept them.
        for old in old_segments:
            assert not old.exists()

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

    def test_every_acked_event_survives_any_single_kill_point(self, tmp_path):
        """Walk the compaction algorithm manually, checking recovery at
        each intermediate disk state."""
        program, backend, store, run = populated_store(tmp_path)
        before, _ = store.read()
        store.close()

        # State A: nothing happened yet.
        after, _ = recovered_records(tmp_path)
        assert acked_events(after) == acked_events(before)

        # State B: compacted segment fully written, manifest still old.
        kept = compact_records(before)
        run_dir = next(SegmentBackend(tmp_path, segment_bytes=1024).root.iterdir())
        compacted = run_dir / "seg-00000077.log"
        compacted.write_text(
            "".join(_frame(json.dumps(r, sort_keys=True)) for r in kept)
        )
        after, _ = recovered_records(tmp_path)
        assert acked_events(after) == acked_events(before)

        # State C: manifest swapped (the commit point).
        compacted.write_text(
            "".join(_frame(json.dumps(r, sort_keys=True)) for r in kept)
        )
        manifest = run_dir / "MANIFEST"
        state = json.loads(manifest.read_text())
        state["segments"] = [compacted.name]
        manifest.write_text(json.dumps(state))
        after, _ = recovered_records(tmp_path)
        assert acked_events(after) == acked_events(before)


def segment_bytes(run_dir):
    return {
        p.name: p.read_bytes() for p in run_dir.iterdir() if p.name.startswith("seg-")
    }


class TestCompactionRefusesDamage:
    """Damage the copy finds raises before the commit point."""

    def test_interior_damage_after_open(self, tmp_path):
        program, backend, store, run = populated_store(tmp_path)
        store.read()  # the types are known: compaction copies lines
        run_dir = store.path
        manifest = (run_dir / "MANIFEST").read_bytes()
        first = run_dir / json.loads(manifest)["segments"][0]
        lines = first.read_text().splitlines(keepends=True)
        assert len(lines) >= 3
        middle = len(lines[1]) // 2
        flipped = "x" if lines[1][middle] != "x" else "y"
        lines[1] = lines[1][:middle] + flipped + lines[1][middle + 1 :]
        first.write_text("".join(lines))
        damaged = segment_bytes(run_dir)
        with pytest.raises(StorageCorruptionError) as compacting:
            store.compact()
        assert (run_dir / "MANIFEST").read_bytes() == manifest
        now = segment_bytes(run_dir)
        assert {name: now[name] for name in damaged} == damaged
        orphans = [run_dir / name for name in now if name not in damaged]
        assert orphans  # the half-written compacted segment
        store.close()
        reopened = SegmentBackend(tmp_path, segment_bytes=1024).store("r1")
        assert not any(orphan.exists() for orphan in orphans)
        with pytest.raises(StorageCorruptionError) as reading:
            reopened.read()
        reopened.close()
        assert str(reading.value) == str(compacting.value)

    def test_unacknowledged_line_on_disk_refuses_the_swap(self, tmp_path):
        program, backend, store, run = populated_store(tmp_path)
        before, _ = store.read()
        run_dir = store.path
        # A framed, CRC-valid line the store never appended: the disk
        # and the type index disagree, so nothing may be dropped.
        stray = {"type": "event", "index": 99}
        with open(run_dir / store._segments[-1], "a", encoding="utf-8") as sink:
            sink.write(_frame(json.dumps(stray, sort_keys=True)))
        manifest = (run_dir / "MANIFEST").read_bytes()
        with pytest.raises(StorageError, match="type index"):
            store.compact()
        assert (run_dir / "MANIFEST").read_bytes() == manifest
        after, _ = store.read()
        store.close()
        assert after == before + [stray]
