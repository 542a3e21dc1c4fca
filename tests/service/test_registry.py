"""Run registry: hosting, journal durability, crash recovery."""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

from repro.runtime.journal import journal_path, recover_run
from repro.service.errors import DuplicateRunError, ServiceError, UnknownRunError
from repro.service.registry import ShardedRunRegistry
from repro.storage import SegmentBackend
from repro.workflow import Event, FreshValue, RunGenerator, Var, execute
from repro.workloads.generators import churn_program


def make_event(program, index):
    return Event(program.rule("make"), {Var("x"): FreshValue(1000 + index)})


class TestHosting:
    def test_open_get_close(self):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program)
            hosted, recovered = await registry.open("r1")
            assert not recovered
            assert await registry.get("r1") is hosted
            assert registry.hosted_count() == 1
            await registry.close("r1")
            assert registry.hosted_count() == 0
            with pytest.raises(UnknownRunError):
                await registry.get("r1")

        asyncio.run(scenario())

    def test_duplicate_open_rejected(self):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program)
            await registry.open("r1")
            with pytest.raises(DuplicateRunError):
                await registry.open("r1")

        asyncio.run(scenario())


class TestJournalDurability:
    def test_reopen_recovers_from_journal(self, tmp_path):
        """A registry restart replays hosted runs from their journals."""
        program = churn_program()
        run = RunGenerator(program, seed=5).random_run(12)

        async def first_life():
            registry = ShardedRunRegistry(program, storage=f"segment:{tmp_path}")
            hosted, _ = await registry.open("r")
            for event in run.events:
                hosted.apply(event)
            # No close: simulate the process dying with the journal behind.
            return hosted.instance

        async def second_life():
            registry = ShardedRunRegistry(program, storage=f"segment:{tmp_path}")
            hosted, recovered = await registry.open("r")
            assert recovered
            return hosted.instance, hosted.applied

        final = asyncio.run(first_life())
        instance, applied = asyncio.run(second_life())
        assert applied == len(run.events)
        assert instance == final

    def test_recovered_caches_match_scratch_views(self, tmp_path):
        program = churn_program()
        run = RunGenerator(program, seed=9).random_run(10)

        async def scenario():
            registry = ShardedRunRegistry(program, storage=f"segment:{tmp_path}")
            hosted, _ = await registry.open("r")
            for event in run.events:
                hosted.apply(event)
            await registry.close("r", status="suspended")

            reborn = ShardedRunRegistry(program, storage=f"segment:{tmp_path}")
            hosted, recovered = await reborn.open("r")
            assert recovered
            for peer in program.schema.peers:
                assert hosted.view_instance(peer) == program.schema.view_instance(
                    hosted.instance, peer
                )

        asyncio.run(scenario())

    def test_journal_files_follow_the_shared_layout(self, tmp_path):
        """The registry writes exactly where journal_path says it will —
        the invariant `repro recover --storage` relies on, and each file
        is a journal `repro recover --journal` reads."""
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program, storage=f"segment:{tmp_path}")
            for run_id in ("plain", "with space", "nested/run:id"):
                hosted, _ = await registry.open(run_id)
                hosted.apply(make_event(program, hash(run_id) % 100))
                await registry.close(run_id)

        asyncio.run(scenario())
        found = SegmentBackend(tmp_path).run_ids()
        assert found == ["nested/run:id", "plain", "with space"]
        for run_id in found:
            path = journal_path(tmp_path, run_id)
            assert path.is_file()
            recovered = recover_run(program, path)
            assert recovered.status == "completed"
            assert recovered.events_replayed == 1

    def test_crash_and_recover_restores_state_and_counts(self, tmp_path):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program, storage=f"segment:{tmp_path}")
            hosted, _ = await registry.open("r")
            events = [make_event(program, i) for i in range(6)]
            for event in events[:4]:
                hosted.apply(event)
            before = hosted.instance
            reborn = await registry.crash_and_recover("r")
            assert reborn is not hosted, "crash must abandon in-memory state"
            assert reborn.instance == before
            assert reborn.applied == 4
            assert reborn.recoveries == 1
            # The recovered run keeps applying.
            for event in events[4:]:
                reborn.apply(event)
            replayed = execute(program, events, check_freshness=False)
            assert reborn.instance == replayed.final_instance

        asyncio.run(scenario())

    def test_crash_without_journal_dir_is_an_error(self):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program)
            await registry.open("r")
            with pytest.raises(ServiceError):
                await registry.crash_and_recover("r")

        asyncio.run(scenario())


class TestRunsAreFreed:
    """A run is freed as soon as the registry lets go of it: nothing in
    the run refers back to it, so its instance, views, provenance log,
    event index and explainers do not wait for the cyclic collector."""

    def test_close_eviction_and_crash_free_the_run(self, tmp_path):
        program = churn_program()
        peer = sorted(program.schema.peers)[0]

        async def hosted_with_state(registry, run_id, start):
            hosted = await registry.get(run_id)
            for index in range(start, start + 6):
                hosted.apply(make_event(program, index))
            hosted.applicable()
            hosted.view_instance(peer)
            hosted.explainer(peer)
            hosted.provenance_log()
            return weakref.ref(hosted)

        async def scenario():
            registry = ShardedRunRegistry(
                program, storage=f"segment:{tmp_path}", max_resident=1
            )
            await registry.open("a")
            run = await hosted_with_state(registry, "a", 0)
            await registry.open("b")  # evicts "a"
            assert run() is None, "eviction left the run alive"
            run = await hosted_with_state(registry, "b", 100)
            await registry.crash_and_recover("b")
            assert run() is None, "crash_and_recover left the run alive"
            run = await hosted_with_state(registry, "b", 200)
            await registry.close("b")
            assert run() is None, "close left the run alive"
            await registry.close("a")

        gc.collect()
        gc.disable()
        try:
            asyncio.run(scenario())
        finally:
            gc.enable()
