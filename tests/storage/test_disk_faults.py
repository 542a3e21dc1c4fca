"""Injected disk faults: deterministic schedules, self-healing aftermath.

The invariant all of these enforce: a fault only ever damages the
*unacknowledged* in-flight record.  Acknowledged history is never lost
— not by a torn write, not by a failed fsync, not by a retry after
either — because eviction/rehydration and crash recovery replay from
disk and must observe exactly what the live run acknowledged.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime.faults import DiskFault, DiskFaultInjector, DiskFaultPlan
from repro.runtime.journal import (
    begin_record,
    end_record,
    event_record,
    journal_path,
    snapshot_record,
)
from repro.service.registry import ShardedRunRegistry
from repro.storage import (
    RecordJournal,
    SegmentBackend,
    compact_records,
)
from repro.storage.segment import _scan_segment
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
    records.append(end_record("completed"))
    return program, run, records


def one_shot(kind, at=0):
    """An injector that fires *kind* once, on append (or fsync) number
    *at* (counting from 0)."""

    class OneShot:
        def __init__(self):
            self.calls = 0
            self.injected = {}

        def on_append(self):
            if kind == "fsync":
                return None
            self.calls += 1
            return kind if self.calls == at + 1 else None

        def on_fsync(self):
            if kind != "fsync":
                return False
            self.calls += 1
            return self.calls == at + 1

    return OneShot()


class TestSchedules:
    def test_plan_is_pure_in_seed_and_index(self):
        plan = DiskFaultPlan(seed=5, short_write_rate=0.3, corrupt_rate=0.3)
        a = DiskFaultInjector(plan)
        b = DiskFaultInjector(plan)
        assert [a.append_fault_at(i) for i in range(50)] == [
            b.append_fault_at(i) for i in range(50)
        ]
        # Querying out of order changes nothing.
        assert a.append_fault_at(7) == b.append_fault_at(7)

    def test_fail_at_append_forces_short_write(self):
        plan = DiskFaultPlan(fail_at_append=3)
        injector = DiskFaultInjector(plan)
        assert [injector.append_fault_at(i) for i in range(5)] == [
            None,
            None,
            None,
            "short_write",
            None,
        ]

    def test_injected_counter(self):
        injector = DiskFaultInjector(DiskFaultPlan(fail_at_append=0))
        assert injector.on_append() == "short_write"
        assert injector.injected == {"short_write": 1}


# The segment store is the backend that takes injected disk faults.
@pytest.mark.parametrize("backend_kind", ["segment"])
@pytest.mark.parametrize("fault", ["enospc", "short_write", "corrupt"])
class TestAppendFaults:
    def test_retry_after_fault_leaves_no_duplicate(self, tmp_path, backend_kind, fault):
        program, run, records = run_records()
        backend = SegmentBackend(tmp_path / "seg", fault_injector=one_shot(fault))
        store = backend.store("r1")
        try:
            store.append(records[0])
            fired = False
        except DiskFault as exc:
            assert exc.kind == fault
            fired = True
        assert fired
        store.append(records[0])  # the broker's retry
        for record in records[1:]:
            store.append(record)
        got, warnings = store.read()
        assert got == records  # exactly once, in order


class TestFsyncFaults:
    def test_failed_fsync_keeps_acknowledged_data(self, tmp_path):
        """An EIO from fsync means the barrier failed, NOT that written
        data is gone: the process is still alive and the page cache
        holds the records.  Nothing may be truncated."""
        program, run, records = run_records()
        backend = SegmentBackend(
            tmp_path, durability="fsync", fault_injector=one_shot("fsync")
        )
        store = backend.store("r1")
        for record in records:
            store.append(record)  # policy syncs inside append swallow the fault
        got, warnings = store.read()
        assert got == records
        assert warnings == []

    def test_explicit_sync_raises_for_barrier_callers(self, tmp_path):
        program, run, records = run_records()
        backend = SegmentBackend(tmp_path, fault_injector=one_shot("fsync"))
        store = backend.store("r1")
        store.append(records[0])
        with pytest.raises(DiskFault):
            store.sync()
        # The data is still there; the next sync achieves the barrier.
        store.sync()
        got, _ = store.read()
        assert got == [records[0]]

    def test_sync_after_a_failed_fsync_still_fsyncs(self, tmp_path, monkeypatch):
        """A sync with nothing appended since the last barrier is skipped;
        a failed barrier leaves the store dirty, so the next one runs."""
        program, run, records = run_records()
        backend = SegmentBackend(tmp_path, fault_injector=one_shot("fsync"))
        store = backend.store("r1")
        synced = []
        monkeypatch.setattr(
            "repro.storage.segment.os.fsync", lambda fd: synced.append(fd)
        )
        store.append(records[0])
        with pytest.raises(DiskFault):
            store.sync()
        assert synced == []
        store.sync()
        assert len(synced) == 1
        store.sync()  # clean: the barrier already covers every record
        assert len(synced) == 1
        store.append(records[1])
        store.sync()
        assert len(synced) == 2
        store.close()


@pytest.mark.parametrize("fault", ["short_write", "corrupt", "enospc", "fsync"])
def test_compaction_copies_only_acknowledged_lines(tmp_path, fault):
    """A fault at append 6 is followed at once by a compaction (with the
    repair still pending for torn and corrupt writes), then the retry
    and the rest of the history, then a second compaction."""
    program = churn_program()
    run = execute(program, [make_event(program, i) for i in range(12)])
    history = [begin_record(run.initial)]
    for index, event in enumerate(run.events):
        history.append(event_record(index, event))
        if (index + 1) % 3 == 0:
            history.append(snapshot_record(index, index + 1, run.instances[index]))
    backend = SegmentBackend(
        tmp_path, durability="fsync", fault_injector=one_shot(fault, at=6)
    )
    store = backend.store("r1")
    faults = 0
    for record in history:
        try:
            store.append(record)
        except DiskFault:
            faults += 1
            store.compact()
            store.append(record)  # the broker's retry
    assert faults == (0 if fault == "fsync" else 1)
    store.compact()
    got, warnings = store.read()
    store.close()
    assert got == compact_records(history)
    assert warnings == []
    assert [p.name for p in tmp_path.iterdir()] == [store.path.name]
    lines, _, problem = _scan_segment(store.path.read_text())
    assert problem is None and len(lines) == len(got)


class TestJournalFaultContainment:
    def test_snapshot_fault_does_not_fail_the_acknowledged_event(self, tmp_path):
        """Regression: the auto-snapshot after an event append is an
        optimization — its failure must not propagate, or the caller
        retries an acknowledged append and duplicates the event."""
        program = churn_program()
        run = execute(program, [make_event(program, i) for i in range(4)])
        backend = SegmentBackend(tmp_path, fault_injector=one_shot("fsync"))
        # Force the snapshot write itself to fail: durability "fsync"
        # makes the snapshot record a barrier, and the one-shot fsync
        # fault fires inside it.
        backend.durability = type(backend.durability).parse("fsync")
        store = backend.store("r1")
        journal = RecordJournal(store, snapshot_every=2)
        journal.begin(run.initial)
        for index, event in enumerate(run.events):
            journal.record_event(index, event, run.final_instance)
        got, _ = store.read()
        events = [r for r in got if r["type"] == "event"]
        assert len(events) == 4
        assert [r["index"] for r in events] == [0, 1, 2, 3]


def tear_tail(root):
    """Append half a record line to run "r"'s log: what a crash in the
    middle of an append leaves behind."""
    with open(journal_path(root, "r"), "a", encoding="utf-8") as handle:
        handle.write('0badc0de {"type": "event", "index": 3, "ev')


# The segment store is the one durable backend.
@pytest.mark.parametrize("kind", ["segment"])
@pytest.mark.parametrize("more", [1, 2])
def test_events_acknowledged_after_a_torn_tail_survive(tmp_path, kind, more):
    """Reopening a store cuts its torn final line off.  Otherwise the
    next acknowledged record is glued onto the torn bytes: one such
    event is lost at the next recovery, two make the journal unreadable."""
    program = churn_program()
    events = [make_event(program, i) for i in range(3 + more)]
    root = tmp_path / kind

    async def life(todo):
        # No close: each life ends like a process death.
        registry = ShardedRunRegistry(program, storage=f"{kind}:{root}")
        hosted, _ = await registry.open("r")
        for event in todo:
            hosted.apply(event)
        return hosted

    asyncio.run(life(events[:3]))
    tear_tail(root)
    reopened = asyncio.run(life(events[3:]))
    assert reopened.applied == 3 + more
    assert reopened.recovery_warnings  # the torn line, reported
    recovered = asyncio.run(life([]))
    assert recovered.applied == 3 + more
    assert recovered.instance == execute(program, events).final_instance


def test_refused_open_leaves_the_run_id_openable(tmp_path):
    """An open whose begin record never lands leaves nothing behind that
    a later open of the same id would have to recover."""
    program = churn_program()
    failing = DiskFaultInjector(DiskFaultPlan(enospc_rate=1.0))
    backend = SegmentBackend(tmp_path, fault_injector=failing)

    async def scenario():
        registry = ShardedRunRegistry(program, storage=backend)
        with pytest.raises(DiskFault):
            await registry.open("r")
        assert not backend.exists("r")
        backend.fault_injector = None
        hosted, recovered = await registry.open("r")
        assert not recovered
        hosted.apply(make_event(program, 0))
        await registry.close("r")

    asyncio.run(scenario())
    assert backend.read_records("r")[0][-1]["type"] == "end"
