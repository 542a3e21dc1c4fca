"""The snapshot cadence and the served write path.

A run is its initial instance plus its events, so a journal's snapshots
are only a recovery shortcut.  ``RecordJournal`` writes one once the
events since the last checkpoint (the begin record's initial instance,
then each snapshot) number ``max(snapshot_every, tuples in that
checkpoint)``.  Two properties follow, checked here on every family:

* every superseded snapshot holds no more tuples than the event records
  between it and the next snapshot, so a store stays within about twice
  its compacted size without being rewritten;
* recovery replays at most ``max(snapshot_every, tuples in the last
  checkpoint)`` events.

And a served run's store is only appended to: from its open to its
close it compacts nothing and deletes no file, and it is one file.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.runtime.checkpoint import fast_recover
from repro.service.registry import ShardedRunRegistry
from repro.storage import MemoryBackend, SegmentBackend
from repro.workloads import family_names, get_family

SNAPSHOT_EVERY = 10


def tuples(encoded):
    """Tuples in an encoded instance (``instance_to_dict`` form)."""
    return sum(len(rows) for rows in encoded.values())


def checkpoints(records):
    """``(events before, tuples)`` of each checkpoint: the begin
    record's initial instance, then every snapshot in order."""
    found = [(0, tuples(records[0]["initial"]))]
    events = 0
    for record in records:
        if record["type"] == "event":
            events += 1
        elif record["type"] == "snapshot":
            assert record["events"] == events
            found.append((events, tuples(record["instance"])))
    return found, events


def check_cadence(program, records, instance):
    """The two properties of the module docstring, on one store."""
    found, events = checkpoints(records)
    snapshots = found[1:]
    for (at, held), (next_at, _) in zip(snapshots, snapshots[1:]):
        assert next_at - at >= held, (
            f"the snapshot after {at} events holds {held} tuples but is "
            f"superseded {next_at - at} events later"
        )
    resumed = fast_recover(program, records)
    assert resumed.instance == instance
    assert resumed.snapshot_position == found[-1][0]
    assert resumed.checkpoint_tuples == found[-1][1]
    assert resumed.engine_replayed == events - found[-1][0]
    assert resumed.engine_replayed <= max(SNAPSHOT_EVERY, found[-1][1])
    return len(snapshots)


def family_events(family, steps, seed=1000):
    spec = get_family(family)
    program = spec.program()
    return program, list(spec.run(seed=seed, steps=steps, program=program).events)


def backend_of(kind, root):
    if kind == "memory":
        return MemoryBackend()
    return SegmentBackend(root, durability="flush")


@pytest.mark.parametrize("kind", ["memory", "segment"])
@pytest.mark.parametrize("family", family_names())
def test_cadence_bounds_every_prefix(family, kind, tmp_path):
    program, events = family_events(family, 240)

    async def scenario():
        registry = ShardedRunRegistry(
            program, storage=backend_of(kind, tmp_path), snapshot_every=SNAPSHOT_EVERY
        )
        hosted, _ = await registry.open("r")
        snapshots = 0
        for position, event in enumerate(events, 1):
            hosted.apply(event)
            if position % 7 == 0 or position == len(events):
                records, _ = hosted.journal.store.read()
                snapshots = check_cadence(program, records, hosted.instance)
        await registry.close("r")
        return snapshots

    assert asyncio.run(scenario()) >= 1


@pytest.mark.parametrize("kind", ["memory", "segment"])
def test_eviction_keeps_the_cadence(kind, tmp_path):
    """Two runs alternating one event at a time under max_resident=1:
    every switch evicts one run and rehydrates the other, and both
    stores stay inside the bounds (an eviction writes no snapshot)."""
    program, first = family_events("cicd", 120, seed=3)
    _, second = family_events("cicd", 120, seed=4)
    streams = {"a": first, "b": second}

    async def scenario():
        registry = ShardedRunRegistry(
            program,
            storage=backend_of(kind, tmp_path),
            snapshot_every=SNAPSHOT_EVERY,
            max_resident=1,
        )
        for run_id in streams:
            await registry.open(run_id)
        for index in range(len(first)):
            for run_id, stream in streams.items():
                hosted = await registry.get(run_id)
                hosted.apply(stream[index])
                if index % 5 == 4:
                    records, _ = hosted.journal.store.read()
                    check_cadence(program, records, hosted.instance)
        assert registry.evictions >= 2 * len(first) - 1
        for run_id in streams:
            await registry.close(run_id)

    asyncio.run(scenario())


@pytest.fixture
def file_operations(monkeypatch):
    """Every ``os.replace``, ``os.unlink``, ``os.rmdir`` and ``os.mkdir``
    from the patch on, as ``(call, name, frees)``: *frees* is whether the
    call freed a file (a replace frees the file it overwrites)."""
    seen = []

    def watch(call, frees):
        real = getattr(os, call)

        def watched(path, *args, **kwargs):
            target = args[0] if call == "replace" else path
            seen.append((call, os.path.basename(target), frees(target)))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(f"repro.storage.segment.os.{call}", watched)

    watch("replace", os.path.exists)
    watch("unlink", lambda path: True)
    watch("rmdir", lambda path: True)
    watch("mkdir", lambda path: False)
    return seen


def test_a_segment_store_is_one_file(tmp_path, file_operations):
    """A new store creates its log and nothing else; a served run's
    store replaces, unlinks and makes nothing from its open to its
    close, and leaves exactly its one ``*.journal`` behind."""
    store = SegmentBackend(tmp_path).store("new")
    store.close()
    assert file_operations == []
    assert [entry.name for entry in tmp_path.iterdir()] == ["new.journal"]

    program, events = family_events("cicd", 600)
    served = tmp_path / "served"
    served.mkdir()
    file_operations.clear()

    async def scenario():
        registry = ShardedRunRegistry(
            program, storage=SegmentBackend(served, durability="flush")
        )
        hosted, _ = await registry.open("r")
        for start in range(0, len(events), 64):
            hosted.apply_batch(events[start : start + 64])
        await registry.close("r")

    asyncio.run(scenario())
    assert file_operations == []
    assert [entry.name for entry in served.iterdir()] == ["r.journal"]


def test_a_served_run_frees_no_file(tmp_path, file_operations):
    """600 cicd events in batches of 64 on a segment store under flush:
    from open to close nothing compacts, no file is unlinked and no
    file is replaced."""
    program, events = family_events("cicd", 600)
    backend = SegmentBackend(tmp_path, durability="flush")

    async def scenario():
        registry = ShardedRunRegistry(program, storage=backend)
        hosted, _ = await registry.open("r")
        file_operations.clear()
        for start in range(0, len(events), 64):
            hosted.apply_batch(events[start : start + 64])
        records, _ = hosted.journal.store.read()
        instance = hosted.instance
        await registry.close("r")
        return records, instance

    records, instance = asyncio.run(scenario())
    assert backend.compactions == 0
    assert [op for op in file_operations if op[2]] == []
    assert check_cadence(program, records, instance) >= 1
