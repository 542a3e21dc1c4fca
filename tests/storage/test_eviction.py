"""LRU eviction of idle hosted runs and transparent rehydration."""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime.faults import DiskFault
from repro.service.errors import ServiceError
from repro.service.registry import ShardedRunRegistry
from repro.storage import MemoryBackend, SegmentBackend
from repro.workflow import Event, FreshValue, Var
from repro.workloads.generators import churn_program


def make_event(program, index):
    return Event(program.rule("make"), {Var("x"): FreshValue(1000 + index)})


def run_async(coro):
    return asyncio.run(coro)


class TestEviction:
    def test_max_resident_enforced_lru(self, tmp_path):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(
                program, storage=SegmentBackend(tmp_path), max_resident=2
            )
            for run_id in ("a", "b", "c"):
                await registry.open(run_id)
            assert registry.resident_count() == 2
            assert registry.evicted_count() == 1
            assert registry.hosted_count() == 3
            # "a" was the least recently used; it is the one evicted.
            assert "a" not in registry._runs
            assert sorted(registry.run_ids()) == ["a", "b", "c"]
            stats = registry.stats()
            assert stats["resident_runs"] == 2
            assert stats["evicted_runs"] == 1
            assert stats["evictions"] == 1

        run_async(scenario())

    def test_rehydration_restores_state_and_counters(self, tmp_path):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(
                program,
                storage=SegmentBackend(tmp_path),
                max_resident=1,
                snapshot_every=2,
            )
            await registry.open("a")
            hosted = await registry.get("a")
            for i in range(5):
                hosted.apply(make_event(program, i))
                hosted.submitted += 1
            await registry.open("b")  # evicts "a"
            assert registry.evicted_count() == 1
            back = await registry.get("a")  # rehydrates, evicts "b"
            assert back.applied == 5
            assert back.submitted == 5
            # Rehydration is transparent: it is NOT a crash recovery.
            assert back.recoveries == 0
            assert back.instance.size() == 5
            # Sequence numbering continues where it left off.
            seq, _ = back.apply(make_event(program, 99))
            assert seq == 5
            assert registry.stats()["rehydrations"] == 1

        run_async(scenario())

    def test_memory_backend_supports_eviction(self):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(
                program, storage=MemoryBackend(), max_resident=1
            )
            await registry.open("a")
            hosted = await registry.get("a")
            hosted.apply(make_event(program, 0))
            await registry.open("b")
            back = await registry.get("a")
            assert back.applied == 1
            assert back.recoveries == 0

        run_async(scenario())

    def test_view_versions_never_go_backwards(self, tmp_path):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(
                program, storage=SegmentBackend(tmp_path), max_resident=1
            )
            await registry.open("a")
            hosted = await registry.get("a")
            for i in range(4):
                hosted.apply(make_event(program, i))
            versions_before = {
                peer: hosted.view_version(peer) for peer in program.schema.peers
            }
            await registry.open("b")  # evicts "a"
            back = await registry.get("a")
            for peer, version in versions_before.items():
                assert back.view_version(peer) >= version

        run_async(scenario())

    def test_close_of_evicted_run_seals_it(self, tmp_path):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(
                program, storage=SegmentBackend(tmp_path), max_resident=1
            )
            await registry.open("a")
            hosted = await registry.get("a")
            hosted.apply(make_event(program, 0))
            await registry.open("b")  # evicts "a"
            closed = await registry.close("a")
            assert closed.applied == 1
            assert registry.hosted_count() == 1
            records, _ = registry.storage.read_records("a")
            assert records[-1]["type"] == "end"
            assert records[-1]["status"] == "completed"

        run_async(scenario())

    def test_crash_of_evicted_run_recovers_from_disk(self, tmp_path):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(
                program, storage=SegmentBackend(tmp_path), max_resident=1
            )
            await registry.open("a")
            hosted = await registry.get("a")
            for i in range(3):
                hosted.apply(make_event(program, i))
            await registry.open("b")  # evicts "a"
            reborn = await registry.crash_and_recover("a")
            assert reborn.applied == 3
            assert reborn.recoveries >= 1

        run_async(scenario())

    def test_eviction_aborts_when_persistence_fails(self, tmp_path):
        """A run whose state cannot be persisted must stay resident —
        evicting it would lose acknowledged events."""
        program = churn_program()

        class AlwaysFailFsync:
            injected = {}

            def on_append(self):
                return None

            def on_fsync(self):
                return True

        async def scenario():
            backend = SegmentBackend(tmp_path, fault_injector=AlwaysFailFsync())
            registry = ShardedRunRegistry(program, storage=backend, max_resident=1)
            await registry.open("a")
            hosted = await registry.get("a")
            hosted.apply(make_event(program, 0))
            await registry.open("b")
            # The eviction of "a" could not reach a durability barrier:
            # it must still be resident (possibly alongside "b").
            assert "a" in registry._runs
            assert registry.resident_count() >= 1
            live = await registry.get("a")
            assert live.applied == 1

        run_async(scenario())

    def test_active_run_is_protected_from_eviction(self, tmp_path):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(
                program, storage=SegmentBackend(tmp_path), max_resident=1
            )
            await registry.open("only")
            hosted = await registry.get("only")
            for i in range(10):
                hosted = await registry.get("only")
                hosted.apply(make_event(program, i))
            assert registry.resident_count() == 1
            assert registry.stats()["evictions"] == 0

        run_async(scenario())
