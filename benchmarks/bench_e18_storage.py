"""E18: the storage layer, priced — recovery, backends, eviction.

Three questions, one per table:

* **E18** — recovery latency.  The checkpoint fast path
  (:func:`fast_recover`, engine work O(events since the last snapshot))
  against the full audit replay (:func:`recover_run`, O(run length))
  as the run grows.  The fast path must be flat in run length; the full
  path grows linearly — the gap is the price of paranoia, paid only
  when auditing.

* **E18b** — per-backend append/read throughput.  The two backends
  (memory, segment) under the flush and fsync durability policies:
  what one acknowledged event costs, and what reading the history back
  costs.  The durable backend buys crash-survival with the fsync
  round-trip; the table shows exactly what that costs here.

* **E18c** — eviction and rehydration.  A registry capped at one
  resident run alternating between two runs pays a full rehydration
  (read + decode + tail replay + view rebuild) per switch; the table
  prices that against the same traffic with both runs resident.
  Rehydration must stay O(tail), not O(run), thanks to the snapshots;
  the table reports the tail each rehydration replays.

* **E18d** — compaction.  What one offline ``SegmentStore.compact()``
  (``repro compact``) costs under flush durability as the history
  grows, with ``snapshot_every`` 10 and four snapshots written since
  the kept one.  Compaction copies the kept lines verbatim
  (CRC-checked, never re-encoded), so its cost is the bytes it copies,
  its fsyncs and the files it frees (one: the log its copy replaces);
  the table reports the time, the bytes, the fsyncs and the files
  freed.

* **E18e** — the served write path.  One 600-event cicd run and one
  procurement run on a segment store under flush durability, through
  ``HostedRun.apply_batch`` in batches of 64 (batch-large's shape),
  from open to close: µs per event, snapshots and compactions written,
  files deleted (an ``os.unlink``, or an ``os.replace`` over an
  existing file), fsyncs, the store's bytes at close, the
  ``read()`` plus :func:`fast_recover` a rehydration would pay, with
  its replay tail, the files and directories the closed store leaves,
  and the time ``delete`` takes to remove them.

``BENCH_E18_SCALE=smoke`` shrinks the workloads for CI and drops the
shape assertions (shared runners cannot price anything).  The full run
archives its measurements in ``BENCH_E18.json`` at the repo root (the
committed baseline).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from conftest import wall_time
from repro.analysis import print_table
from repro.runtime.checkpoint import fast_recover
from repro.runtime.journal import (
    begin_record,
    end_record,
    event_record,
    recover_run,
    snapshot_record,
)
from repro.service import ShardedRunRegistry
from repro.storage import RecordJournal, compact_records, open_backend
from repro.workflow import Event, FreshValue, Var, execute
from repro.workloads import churn_program, get_family

SMOKE = os.environ.get("BENCH_E18_SCALE", "").strip().lower() == "smoke"
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_E18.json"
SNAPSHOT_EVERY = 20

_baseline: dict = {}


def _make_events(program, count):
    rule = program.rule("make")
    return [Event(rule, {Var("x"): FreshValue(1000 + i)}) for i in range(count)]


def _run_records(program, events, snapshot_every=SNAPSHOT_EVERY):
    """A complete journal record list for *events* applied events."""
    run = execute(program, events)
    records = [begin_record(run.initial)]
    for index, event in enumerate(run.events):
        records.append(event_record(index, event))
        if (index + 1) % snapshot_every == 0:
            records.append(snapshot_record(index, index + 1, run.instances[index]))
    records.append(end_record("completed"))
    return records


def _fresh_dir(root, name):
    path = Path(root) / name
    if path.exists():
        shutil.rmtree(path)
    return path


def test_e18_recovery_latency(benchmark):
    program = churn_program()
    lengths = (20, 60) if SMOKE else (50, 200, 800)
    rows = []
    json_rows = []
    fast_times = []
    for length in lengths:
        records = _run_records(program, _make_events(program, length))
        full_ms = wall_time(lambda: recover_run(program, records)) * 1e3
        fast_ms = wall_time(lambda: fast_recover(program, records)) * 1e3
        resumed = fast_recover(program, records)
        assert resumed.complete
        assert resumed.engine_replayed == length - resumed.snapshot_position
        fast_times.append(fast_ms)
        rows.append(
            [
                length,
                resumed.engine_replayed,
                f"{fast_ms:.1f}",
                f"{full_ms:.1f}",
                f"{full_ms / fast_ms:.1f}x",
            ]
        )
        json_rows.append(
            {
                "events": length,
                "tail_replayed": resumed.engine_replayed,
                "fast_ms": round(fast_ms, 3),
                "full_ms": round(full_ms, 3),
                "ratio": round(full_ms / fast_ms, 2),
            }
        )
    print_table(
        "E18: recovery latency — checkpoint fast path vs full audit replay",
        ["events", "tail", "fast ms", "full ms", "full/fast"],
        rows,
    )
    _baseline["recovery"] = json_rows
    if not SMOKE:
        # The fast path is O(tail): 16x more events may not cost 16x.
        # (Decoding the history is linear too, but it is a JSON walk,
        # not engine work — allow 8x where the events grew 16x.)
        assert fast_times[-1] / fast_times[0] < 8.0, (
            f"fast_recover grew {fast_times[-1] / fast_times[0]:.1f}x over a "
            f"16x event growth — the checkpoint fast path is not O(tail)"
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e18b_backend_throughput(benchmark):
    program = churn_program()
    count = 50 if SMOKE else 400
    records = _run_records(program, _make_events(program, count))
    rows = []
    json_rows = []
    with tempfile.TemporaryDirectory(prefix="bench-e18-") as tmp:
        specs = [
            ("memory", "memory", "flush"),
            ("segment", f"segment:{_fresh_dir(tmp, 'seg-flush')}", "flush"),
            ("segment", f"segment:{_fresh_dir(tmp, 'seg-fsync')}", "fsync"),
        ]
        for name, spec, durability in specs:
            backend = open_backend(spec, durability=durability)
            store = backend.store("bench")
            append_s = wall_time(
                lambda: [store.append(r) for r in records], repeat=1
            )
            store.sync()
            read_ms = wall_time(lambda: store.read()) * 1e3
            got, warnings = store.read()
            assert got == records and warnings == []
            store.close()
            backend.close()
            per_append_us = append_s / len(records) * 1e6
            rows.append(
                [
                    name,
                    durability,
                    len(records),
                    f"{per_append_us:.1f}",
                    f"{read_ms:.1f}",
                ]
            )
            json_rows.append(
                {
                    "backend": name,
                    "durability": durability,
                    "records": len(records),
                    "append_us": round(per_append_us, 2),
                    "read_ms": round(read_ms, 3),
                }
            )
    print_table(
        "E18b: storage backend throughput (per acknowledged record)",
        ["backend", "durability", "records", "append us", "read ms"],
        rows,
    )
    _baseline["throughput"] = json_rows
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e18c_eviction_rehydration(benchmark):
    program = churn_program()
    events_per_run = 16 if SMOKE else 60
    switches = 6 if SMOKE else 20
    rows = []
    json_rows = []
    with tempfile.TemporaryDirectory(prefix="bench-e18c-") as tmp:

        async def alternate(max_resident):
            backend = open_backend(f"segment:{_fresh_dir(tmp, f'evict-{max_resident}')}")
            registry = ShardedRunRegistry(
                program,
                storage=backend,
                max_resident=max_resident,
                snapshot_every=SNAPSHOT_EVERY,
            )
            for run_id, offset in (("a", 0), ("b", 5000)):
                await registry.open(run_id)
                hosted = await registry.get(run_id)
                rule = program.rule("make")
                for i in range(events_per_run):
                    hosted.apply(Event(rule, {Var("x"): FreshValue(offset + i)}))
            start = time.perf_counter()
            for i in range(switches):
                hosted = await registry.get("a" if i % 2 == 0 else "b")
                assert hosted.applied == events_per_run
            elapsed = time.perf_counter() - start
            stats = registry.stats()
            for run_id in ("a", "b"):
                await registry.close(run_id)
            # The events a rehydration of "a" replays after its checkpoint.
            tail = fast_recover(program, backend.read_records("a")[0]).engine_replayed
            backend.close()
            return elapsed, stats, tail

        resident_s, resident_stats, _ = asyncio.run(alternate(max_resident=None))
        evicting_s, evicting_stats, tail = asyncio.run(alternate(max_resident=1))
        assert resident_stats["rehydrations"] == 0
        assert evicting_stats["rehydrations"] >= switches - 1
        per_switch_us = resident_s / switches * 1e6
        per_rehydration_ms = evicting_s / switches * 1e3
        rows.append(
            ["both resident", switches, f"{per_switch_us:.1f} us", "0", "-"]
        )
        rows.append(
            [
                "max_resident=1",
                switches,
                f"{per_rehydration_ms * 1e3:.1f} us",
                str(evicting_stats["rehydrations"]),
                str(tail),
            ]
        )
        json_rows.append(
            {
                "mode": "resident",
                "switches": switches,
                "per_switch_us": round(per_switch_us, 2),
                "rehydrations": resident_stats["rehydrations"],
            }
        )
        json_rows.append(
            {
                "mode": "evicting",
                "switches": switches,
                "per_switch_us": round(per_rehydration_ms * 1e3, 2),
                "rehydrations": evicting_stats["rehydrations"],
                "events_per_run": events_per_run,
                "tail_replayed": tail,
            }
        )
    print_table(
        "E18c: run switching — resident vs evict/rehydrate per switch",
        ["mode", "switches", "per switch", "rehydrations", "tail"],
        rows,
    )
    _baseline["eviction"] = json_rows
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def _pending_history(program, length, snapshot_every=10, pending=4):
    """A store's records with snapshots to reclaim: *length* events,
    the snapshot a previous compaction kept, and the *pending*
    snapshots written since."""
    run = execute(program, _make_events(program, length))
    first = length - pending * snapshot_every
    records = [begin_record(run.initial)]
    for index, event in enumerate(run.events):
        records.append(event_record(index, event))
        done = index + 1
        if done >= first and done % snapshot_every == 0:
            records.append(snapshot_record(index, done, run.instances[index]))
    return records


def test_e18d_compaction_cost(benchmark):
    program = churn_program()
    lengths = (60, 120) if SMOKE else (200, 800, 3200)
    repeats = 1 if SMOKE else 5
    rows = []
    json_rows = []
    with tempfile.TemporaryDirectory(prefix="bench-e18d-") as tmp:
        for length in lengths:
            records = _pending_history(program, length)
            kept = compact_records(records)
            samples = []
            for attempt in range(repeats):
                spec = f"segment:{_fresh_dir(tmp, f'compact-{length}-{attempt}')}"
                backend = open_backend(spec, durability="flush")
                store = backend.store("bench")
                for record in records:
                    store.append(record)
                with _counting_writes() as counts:
                    start = time.perf_counter()
                    stats = store.compact()
                    samples.append(time.perf_counter() - start)
                got, warnings = store.read()
                assert got == kept and warnings == []
                store.close()
                backend.close()
            samples.sort()
            compact_ms = samples[len(samples) // 2] * 1e3
            rows.append(
                [
                    length,
                    stats.records_before,
                    stats.records_after,
                    f"{stats.bytes_after / 1024:.1f}",
                    counts["fsyncs"],
                    counts["deletions"],
                    f"{compact_ms:.2f}",
                ]
            )
            json_rows.append(
                {
                    "events": length,
                    "records_before": stats.records_before,
                    "records_after": stats.records_after,
                    "bytes_before": stats.bytes_before,
                    "bytes_copied": stats.bytes_after,
                    "fsyncs": counts["fsyncs"],
                    "file_deletions": counts["deletions"],
                    "compact_ms": round(compact_ms, 3),
                    "repeats": repeats,
                }
            )
    print_table(
        "E18d: one segment-store compaction (flush, snapshot_every 10, "
        "4 snapshots pending)",
        ["events", "records", "kept", "KiB copied", "fsyncs", "freed", "ms"],
        rows,
    )
    _baseline["compaction"] = json_rows
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@contextlib.contextmanager
def _counting_writes():
    """Count snapshots written, files deleted and fsyncs while active.

    A file is deleted by ``os.unlink`` or by an ``os.replace`` over an
    existing file (the replaced one is freed).  Pathlib's ``unlink``
    goes through ``os.unlink``, so the segment store's deletions all
    show here.
    """
    counts = {"snapshots": 0, "deletions": 0, "fsyncs": 0}
    replace, unlink, fsync = os.replace, os.unlink, os.fsync
    snapshot = RecordJournal.snapshot

    def replacing(source, target, *args, **kwargs):
        counts["deletions"] += os.path.exists(target)
        return replace(source, target, *args, **kwargs)

    def unlinking(path, *args, **kwargs):
        counts["deletions"] += 1
        return unlink(path, *args, **kwargs)

    def fsyncing(fd):
        counts["fsyncs"] += 1
        return fsync(fd)

    def snapshotting(self, *args, **kwargs):
        counts["snapshots"] += 1
        return snapshot(self, *args, **kwargs)

    os.replace, os.unlink, os.fsync = replacing, unlinking, fsyncing
    RecordJournal.snapshot = snapshotting
    try:
        yield counts
    finally:
        os.replace, os.unlink, os.fsync = replace, unlink, fsync
        RecordJournal.snapshot = snapshot


def test_e18e_served_write_path(benchmark):
    steps = 120 if SMOKE else 600
    batch = 64
    rows = []
    json_rows = []
    with tempfile.TemporaryDirectory(prefix="bench-e18e-") as tmp:
        for family in ("cicd", "procurement"):
            spec = get_family(family)
            program = spec.program()
            events = list(spec.run(seed=1000, steps=steps, program=program).events)
            root = _fresh_dir(tmp, family)
            backend = open_backend(f"segment:{root}", durability="flush")

            async def serve():
                registry = ShardedRunRegistry(program, storage=backend)
                hosted, _ = await registry.open("run")
                start = time.perf_counter()
                for offset in range(0, len(events), batch):
                    hosted.apply_batch(events[offset : offset + batch])
                elapsed = time.perf_counter() - start
                instance = hosted.instance
                await registry.close("run")
                return elapsed, instance

            with _counting_writes() as counts:
                elapsed, instance = asyncio.run(serve())
            store = backend.store("run")
            store_bytes = store.size_bytes()
            start = time.perf_counter()
            resumed = fast_recover(program, store.read()[0])
            recover_ms = (time.perf_counter() - start) * 1e3
            store.close()
            assert resumed.instance == instance
            compactions = backend.compactions
            entries = sum(1 for _ in root.rglob("*"))
            start = time.perf_counter()
            backend.delete("run")
            delete_ms = (time.perf_counter() - start) * 1e3
            assert not any(root.iterdir())
            backend.close()
            per_event_us = elapsed / len(events) * 1e6
            rows.append(
                [
                    family,
                    len(events),
                    f"{per_event_us:.1f}",
                    counts["snapshots"],
                    compactions,
                    counts["deletions"],
                    counts["fsyncs"],
                    f"{store_bytes / 1024:.1f}",
                    f"{recover_ms:.1f}",
                    resumed.engine_replayed,
                    entries,
                    f"{delete_ms:.1f}",
                ]
            )
            json_rows.append(
                {
                    "family": family,
                    "events": len(events),
                    "us_per_event": round(per_event_us, 2),
                    "snapshots": counts["snapshots"],
                    "compactions": compactions,
                    "file_deletions": counts["deletions"],
                    "fsyncs": counts["fsyncs"],
                    "store_bytes": store_bytes,
                    "recover_ms": round(recover_ms, 3),
                    "tail_replayed": resumed.engine_replayed,
                    "store_entries": entries,
                    "delete_ms": round(delete_ms, 3),
                }
            )
    print_table(
        "E18e: the served write path (segment, flush, apply_batch of 64, "
        "open to close)",
        [
            "family",
            "events",
            "us/event",
            "snapshots",
            "compactions",
            "deleted",
            "fsyncs",
            "KiB",
            "recover ms",
            "tail",
            "entries",
            "delete ms",
        ],
        rows,
    )
    _baseline["write_path"] = json_rows
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e18_write_baseline(benchmark):
    """Archive the measured numbers (full runs only — smoke sizes would
    overwrite the committed baseline with non-comparable figures)."""
    if not SMOKE and _baseline:
        BASELINE_PATH.write_text(
            json.dumps(
                {"experiment": "E18", "cpu_count": os.cpu_count(), **_baseline},
                indent=2,
            )
            + "\n"
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
