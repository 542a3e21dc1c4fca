"""A run's log, one file: framing, tail recovery, atomic compaction."""

from __future__ import annotations

import json
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.runtime.journal import (
    begin_record,
    end_record,
    event_record,
    journal_path,
    quarantine_record,
    snapshot_record,
)
from repro.storage import SegmentBackend, StorageCorruptionError, compact_records
from repro.storage.backend import kept_positions
from repro.storage.segment import _frame
from repro.workflow import Event, FreshValue, Var, execute
from repro.workloads.generators import churn_program


def make_event(program, index):
    return Event(program.rule("make"), {Var("x"): FreshValue(1000 + index)})


def run_records(events=5):
    program = churn_program()
    run = execute(program, [make_event(program, i) for i in range(events)])
    records = [begin_record(run.initial)]
    for index, event in enumerate(run.events):
        records.append(event_record(index, event))
    records.append(snapshot_record(events - 1, events, run.final_instance))
    records.append(end_record("completed"))
    return records


def mixed_history(events=30):
    """Begin, events with a snapshot every 10, a quarantine, a stale end
    marker mid-history (a crash/recover cycle) and a final end."""
    program = churn_program()
    run = execute(program, [make_event(program, i) for i in range(events)])
    records = [begin_record(run.initial)]
    for index, event in enumerate(run.events):
        records.append(event_record(index, event))
        if (index + 1) % 10 == 0:
            records.append(snapshot_record(index, index + 1, run.instances[index]))
        if index == 12:
            records.append(
                quarantine_record(index + 1, make_event(program, 999), "boom", 3)
            )
        if index == 17:
            records.append(end_record("crashed"))
    records.append(end_record("completed"))
    return records


def fill(store, records):
    for record in records:
        store.append(record)


def root_entries(backend):
    return sorted(entry.name for entry in backend.root.iterdir())


class TestFraming:
    def test_crc_prefix_per_line(self, tmp_path):
        backend = SegmentBackend(tmp_path)
        store = backend.store("r1")
        fill(store, run_records())
        store.sync()
        assert store.path == journal_path(tmp_path, "r1")
        assert root_entries(backend) == ["r1.journal"]
        lines = store.path.read_text().splitlines()
        assert len(lines) == len(run_records())
        for line in lines:
            crc_text, payload = line[:8], line[9:]
            assert line[8] == " "
            assert int(crc_text, 16) == zlib.crc32(payload.encode("utf-8"))
            assert isinstance(json.loads(payload), dict)
        store.close()


class TestTailRecovery:
    def test_torn_tail_truncated_with_warning_on_reopen(self, tmp_path):
        backend = SegmentBackend(tmp_path)
        records = run_records()
        store = backend.store("r1")
        fill(store, records)
        store.close()
        log = store.path
        data = log.read_text()
        # Tear the last record mid-line: no trailing newline.
        log.write_text(data + 'deadbeef {"type": "end", "status')
        reopened = backend.store("r1")
        got, warnings = reopened.read()
        reopened.close()
        assert got == records
        assert any("truncated" in w for w in warnings)
        assert log.read_text() == data

    def test_corrupt_tail_line_truncated(self, tmp_path):
        backend = SegmentBackend(tmp_path)
        records = run_records()
        store = backend.store("r1")
        fill(store, records)
        store.close()
        log = store.path
        lines = log.read_text().splitlines(keepends=True)
        last = lines[-1]
        middle = len(last) // 2
        lines[-1] = last[:middle] + ("x" if last[middle] != "x" else "y") + last[middle + 1 :]
        log.write_text("".join(lines))
        reopened = backend.store("r1")
        got, warnings = reopened.read()
        reopened.close()
        assert got == records[:-1]
        assert warnings

    def test_mid_segment_damage_refused(self, tmp_path):
        backend = SegmentBackend(tmp_path)
        store = backend.store("r1")
        fill(store, run_records())
        store.close()
        lines = store.path.read_text().splitlines(keepends=True)
        # Damage an interior line: acknowledged history, not tail garbage.
        target = lines[2]
        middle = len(target) // 2
        lines[2] = target[:middle] + ("x" if target[middle] != "x" else "y") + target[middle + 1 :]
        damaged = "".join(lines)
        store.path.write_text(damaged)
        with pytest.raises(StorageCorruptionError, match="mid-log"):
            backend.store("r1")
        assert store.path.read_text() == damaged  # nothing was cut off


class TestCompaction:
    def test_compaction_is_atomic_and_sweeps_old_segments(self, tmp_path):
        backend = SegmentBackend(tmp_path)
        store = backend.store("r1")
        program = churn_program()
        run = execute(program, [make_event(program, i) for i in range(30)])
        store.append(begin_record(run.initial))
        for index, event in enumerate(run.events):
            store.append(event_record(index, event))
            if (index + 1) % 10 == 0:
                store.append(snapshot_record(index, index + 1, run.final_instance))
        before, _ = store.read()
        stats = store.compact()
        assert stats.records_after < stats.records_before
        assert stats.bytes_after == store.path.stat().st_size < stats.bytes_before
        after, warnings = store.read()
        assert warnings == []
        assert after == compact_records(before)
        # The copy replaced the log: no .tmp is left behind.
        assert root_entries(backend) == ["r1.journal"]
        # The store still accepts appends after the swap.
        store.append(end_record("completed"))
        got, _ = store.read()
        store.close()
        assert got[-1]["type"] == "end"

    def test_orphan_segments_swept_on_open(self, tmp_path):
        backend = SegmentBackend(tmp_path)
        store = backend.store("r1")
        fill(store, run_records())
        store.close()
        # A crash between writing a compacted copy and renaming it over
        # the log leaves an orphan; reopening must ignore and remove it.
        orphan = tmp_path / "r1.journal.tmp"
        orphan.write_text('00000000 {"type": "garbage"}\n')
        assert backend.run_ids() == ["r1"]  # an orphan is never listed
        reopened = backend.store("r1")
        got, warnings = reopened.read()
        reopened.close()
        assert (got, warnings) == (run_records(), [])
        assert not orphan.exists()


class TestCopyCompaction:
    """Compaction copies CRC-checked lines; it never re-encodes."""

    def test_writes_the_bytes_a_decode_and_re_encode_writes(self, tmp_path):
        backend = SegmentBackend(tmp_path)
        store = backend.store("r1")
        fill(store, mixed_history())
        before, _ = backend.read_records("r1")
        kinds = [r["type"] for r in before]
        assert kinds.count("snapshot") > 1 and "quarantine" in kinds
        assert kinds.count("end") == 2
        store.compact()
        expected = "".join(
            _frame(json.dumps(r, sort_keys=True)) for r in compact_records(before)
        )
        assert store.path.read_bytes() == expected.encode("utf-8")
        store.close()

    def test_known_types_compact_without_decoding(self, tmp_path, segment_json_calls):
        backend = SegmentBackend(tmp_path)
        store = backend.store("r1")
        records = mixed_history()
        fill(store, records)
        segment_json_calls.clear()
        store.compact()
        assert segment_json_calls == {}
        assert store.read()[0] == compact_records(records)
        store.close()

    def test_reopened_store_decodes_once_and_encodes_nothing(
        self, tmp_path, segment_json_calls
    ):
        backend = SegmentBackend(tmp_path)
        records = mixed_history()
        store = backend.store("r1")
        fill(store, records)
        store.close()
        segment_json_calls.clear()
        reopened = backend.store("r1")  # the open-time scan decodes each line
        stats = reopened.compact()
        assert segment_json_calls["loads"] == len(records)
        assert segment_json_calls["dumps"] == 0
        assert stats.records_before == len(records)
        assert reopened.read()[0] == compact_records(records)
        reopened.close()

    def test_type_index_stays_aligned(self, tmp_path):
        backend = SegmentBackend(tmp_path)
        records = mixed_history()

        def on_disk():
            return [r["type"] for r in backend.read_records("r1")[0]]

        store = backend.store("r1")
        assert store._kinds == []
        fill(store, records[:20])
        assert store._kinds == on_disk()
        store.close()
        store = backend.store("r1")  # reopened: the open-time scan
        assert store.record_count() == 20
        assert store._kinds == on_disk()
        fill(store, records[20:])
        assert store._kinds == on_disk()
        store.compact()
        assert store._kinds == on_disk() == [
            r["type"] for r in compact_records(records)
        ]
        fill(store, records[1:5])
        assert store._kinds == on_disk()
        assert store.record_count() == len(compact_records(records)) + 4
        store.close()


KINDS = st.lists(
    st.sampled_from(["begin", "event", "snapshot", "quarantine", "end"]),
    max_size=40,
)


@given(KINDS)
def test_kept_positions_is_the_compaction_rule(kinds):
    kept = kept_positions(kinds)
    assert kept == sorted(set(kept))
    snapshots = [i for i, kind in enumerate(kinds) if kind == "snapshot"]
    for position, kind in enumerate(kinds):
        if kind == "snapshot":
            assert (position in kept) == (position == snapshots[-1])
        elif kind == "end":
            assert (position in kept) == (position == len(kinds) - 1)
        else:
            assert position in kept
    records = [{"type": kind, "n": n} for n, kind in enumerate(kinds)]
    assert compact_records(records) == [records[i] for i in kept]


class TestDecodeOnce:
    """A reopened log is decoded once: the open-time scan's records go
    to the first read, and the first write drops them."""

    def test_registry_recovery_decodes_each_line_once(
        self, tmp_path, segment_json_calls
    ):
        import asyncio

        from repro.service.registry import ShardedRunRegistry
        from repro.workloads import get_family

        family = get_family("cicd")
        program = family.program()
        events = list(family.run(seed=1000, steps=600, program=program).events)
        backend = SegmentBackend(tmp_path, durability="flush")

        async def serve():
            registry = ShardedRunRegistry(program, storage=backend)
            hosted, _ = await registry.open("r")
            for start in range(0, len(events), 64):
                hosted.apply_batch(events[start : start + 64])
            await registry.close("r", status="suspended")
            return hosted.instance

        async def recover():
            registry = ShardedRunRegistry(program, storage=backend)
            segment_json_calls.clear()
            hosted, recovered = await registry.open("r")
            loads = segment_json_calls["loads"]
            await registry.close("r")
            return hosted, recovered, loads

        served = asyncio.run(serve())
        lines = (tmp_path / "r.journal").read_text().count("\n")
        hosted, recovered, loads = asyncio.run(recover())
        assert recovered and hosted.applied == len(events)
        assert hosted.instance == served
        assert lines == 608
        assert loads == lines

    def test_a_write_drops_the_open_time_records(self, tmp_path):
        backend = SegmentBackend(tmp_path)
        records = mixed_history()
        store = backend.store("r1")
        fill(store, records[:10])
        store.close()
        reopened = backend.store("r1")
        assert reopened._decoded == records[:10]
        reopened.append(records[10])
        assert reopened._decoded is None
        assert reopened.read()[0] == records[:11]
        reopened.close()
        again = backend.store("r1")
        assert again.read()[0] == records[:11]
        assert again._decoded is None  # handed over, not kept
        assert again.read()[0] == records[:11]
        again.close()
