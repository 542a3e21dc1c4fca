"""Protocol conformance: every backend honours the RunStore contract."""

from __future__ import annotations

import pytest

from repro.runtime.journal import begin_record, end_record, event_record, snapshot_record
from repro.storage import (
    DurabilityPolicy,
    MemoryBackend,
    SegmentBackend,
    StorageError,
    compact_records,
    open_backend,
)
from repro.workflow import Event, FreshValue, Var
from repro.workloads.generators import churn_program


@pytest.fixture(params=["memory", "segment"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryBackend()
    else:
        yield SegmentBackend(tmp_path / "seg")


def sample_records(program, events=5):
    from repro.workflow import execute

    run = execute(program, [make_event(program, i) for i in range(events)])
    records = [begin_record(run.initial)]
    for index, event in enumerate(run.events):
        records.append(event_record(index, event))
    records.append(snapshot_record(events - 1, events, run.final_instance))
    records.append(end_record("completed"))
    return records


def make_event(program, index):
    return Event(program.rule("make"), {Var("x"): FreshValue(1000 + index)})


class TestRoundTrip:
    def test_append_read_round_trip(self, backend):
        program = churn_program()
        records = sample_records(program)
        store = backend.store("r1")
        for record in records:
            store.append(record)
        got, warnings = store.read()
        assert got == records
        assert warnings == []
        assert store.record_count() == len(records)
        assert store.size_bytes() > 0

    def test_read_records_via_backend(self, backend):
        program = churn_program()
        records = sample_records(program)
        store = backend.store("r1")
        for record in records:
            store.append(record)
        store.sync()
        got, warnings = backend.read_records("r1")
        assert got == records
        assert warnings == []

    def test_exists_run_ids_delete(self, backend):
        program = churn_program()
        assert not backend.exists("r1")
        store = backend.store("r1")
        for record in sample_records(program):
            store.append(record)
        assert backend.exists("r1")
        assert backend.run_ids() == ["r1"]
        backend.delete("r1")
        assert not backend.exists("r1")
        assert backend.run_ids() == []

    def test_closed_store_refuses_appends(self, backend):
        program = churn_program()
        store = backend.store("r1")
        store.append(sample_records(program)[0])
        store.close()
        with pytest.raises(StorageError):
            store.append(end_record("completed"))

    def test_stats_shape(self, backend):
        stats = backend.stats()
        assert stats["backend"] == backend.name
        assert stats["durable"] == backend.durable

    def test_context_manager_closes(self, tmp_path, backend):
        with backend as b:
            assert b is backend


class TestCompaction:
    def test_compact_records_keeps_history_and_latest_snapshot(self):
        program = churn_program()
        records = sample_records(program, events=8)
        # A stale snapshot earlier in the history should be dropped.
        from repro.workflow import execute

        run = execute(program, [make_event(program, i) for i in range(3)])
        records.insert(3, snapshot_record(2, 3, run.final_instance))
        kept = compact_records(records)
        assert [r["type"] for r in kept].count("snapshot") == 1
        assert [r for r in kept if r["type"] == "event"] == [
            r for r in records if r["type"] == "event"
        ]
        assert kept[0]["type"] == "begin"
        assert kept[-1]["type"] == "end"

    def test_store_compact_preserves_records(self, backend):
        program = churn_program()
        records = sample_records(program, events=8)
        store = backend.store("r1")
        for record in records:
            store.append(record)
        before = store.record_count()
        stats = store.compact()
        assert stats.records_before == before
        got, warnings = store.read()
        assert warnings == []
        assert got == compact_records(records)
        # Appends keep working after a compaction.
        store.append(end_record("completed"))
        got, _ = store.read()
        assert got[-1]["type"] == "end"


class TestOpenBackend:
    def test_specs(self, tmp_path):
        assert open_backend("memory").name == "memory"
        assert open_backend(f"segment:{tmp_path/'s'}").name == "segment"

    def test_passthrough_and_bad_spec(self, tmp_path):
        backend = MemoryBackend()
        assert open_backend(backend) is backend
        # The sqlite and file backends are gone, not aliased.
        for spec in (
            "bogus:where",
            f"sqlite:{tmp_path/'db'}",
            f"journal:{tmp_path/'j'}",
            f"file:{tmp_path/'f'}",
        ):
            with pytest.raises(StorageError):
                open_backend(spec)

    def test_durability_parse(self):
        assert DurabilityPolicy.parse(None).mode == "flush"
        assert DurabilityPolicy.parse("fsync").mode == "fsync"
        policy = DurabilityPolicy.parse("interval:32")
        assert policy.mode == "interval" and policy.interval == 32
        for spec in ("umbrella", "none"):
            with pytest.raises(StorageError):
                DurabilityPolicy.parse(spec)
