"""Replication contract tests: shipping, prefix invariant, reconcile."""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import ReplicationShipper, reconcile_with_follower
from repro.cluster.replicate import ReplicatingBackend, parse_address
from repro.runtime.journal import begin_record, event_record
from repro.service import (
    ServiceClient,
    ServiceServer,
    ShardedRunRegistry,
    WorkflowService,
)
from repro.storage import open_backend
from repro.storage.backend import StorageError
from repro.workflow import RunGenerator
from repro.workflow.serialization import event_to_dict
from repro.workloads.generators import churn_program


def test_parse_address():
    assert parse_address("127.0.0.1:7477") == ("127.0.0.1", 7477)
    with pytest.raises(StorageError):
        parse_address("no-port")
    with pytest.raises(StorageError):
        parse_address("host:abc")


def run_pair_scenario(scenario, tmp_path, durability="flush"):
    """A primary replicating to a follower, both full server stacks."""
    program = churn_program()

    async def main():
        follower_service = WorkflowService(
            program, storage=f"segment:{tmp_path / 'follower'}", durability=durability
        )
        follower = ServiceServer(follower_service, port=0)
        await follower.start()
        primary_service = WorkflowService(
            program,
            storage=f"segment:{tmp_path / 'primary'}",
            durability=durability,
            replicate_to=f"{follower.host}:{follower.port}",
        )
        primary = ServiceServer(primary_service, port=0)
        await primary.start()
        try:
            return await scenario(program, primary, follower, tmp_path)
        finally:
            await primary.stop()
            await follower.stop()

    return asyncio.run(main())


class TestShipping:
    def test_follower_holds_primary_prefix(self, tmp_path):
        async def scenario(program, primary, follower, base):
            events = RunGenerator(program, seed=5).random_run(10).events
            client = await ServiceClient.connect(primary.host, primary.port)
            try:
                await client.expect_ok(op="open", run="rep-1")
                for event in events:
                    await client.expect_ok(
                        op="submit", run="rep-1", event=event_to_dict(event)
                    )
                # The shutdown drains replication before acking.
                response = await client.expect_ok(op="shutdown")
                assert response["drained"]
            finally:
                await client.close()
            primary_backend = open_backend(f"segment:{base / 'primary'}")
            follower_backend = open_backend(f"segment:{base / 'follower'}")
            try:
                sent, _ = primary_backend.read_records("rep-1")
                got, _ = follower_backend.read_records("rep-1")
                # Byte-for-byte the same records, in the same order.
                assert got == sent
                assert len(sent) >= len(events)
            finally:
                primary_backend.close()
                follower_backend.close()

        run_pair_scenario(scenario, tmp_path)

    def test_replication_stats_surface_in_stats_op(self, tmp_path):
        async def scenario(program, primary, follower, base):
            events = RunGenerator(program, seed=6).random_run(4).events
            client = await ServiceClient.connect(primary.host, primary.port)
            try:
                await client.expect_ok(op="open", run="rep-2")
                for event in events:
                    await client.expect_ok(
                        op="submit", run="rep-2", event=event_to_dict(event)
                    )
                assert primary.service.replication is not None
                await primary.service.replication.drain()
                stats = await client.expect_ok(op="stats")
                assert stats["replication"]["shipped"] > 0
                assert stats["replication"]["pending"] == 0
                assert stats["replication"]["target"].endswith(
                    str(follower.port)
                )
            finally:
                await client.close()

        run_pair_scenario(scenario, tmp_path)

    def test_count_query_and_duplicate_suppression(self, tmp_path):
        async def scenario(program, primary, follower, base):
            client = await ServiceClient.connect(follower.host, follower.port)
            try:
                empty = await client.expect_ok(
                    op="replicate", run="fresh", count=True
                )
                assert empty["records"] == 0
                record = {"type": "event", "event": {"rule": "x"}}
                await client.expect_ok(
                    op="replicate", run="fresh", records=[record, record]
                )
                counted = await client.expect_ok(
                    op="replicate", run="fresh", count=True
                )
                assert counted["records"] == 2
                bad = await client.request(op="replicate", run="fresh")
                assert not bad["ok"] and bad["error"] == "protocol"
                nonobject = await client.request(
                    op="replicate", run="fresh", records=["nope"]
                )
                assert not nonobject["ok"] and nonobject["error"] == "protocol"
            finally:
                await client.close()

        run_pair_scenario(scenario, tmp_path)

    def test_count_does_not_decode_a_held_replica(self, tmp_path, segment_json_calls):
        async def scenario(program, primary, follower, base):
            client = await ServiceClient.connect(follower.host, follower.port)
            try:
                records = [{"type": "begin"}]
                records += [{"type": "event", "n": n} for n in range(5)]
                await client.expect_ok(op="replicate", run="held", records=records)
                first = await client.expect_ok(op="replicate", run="held", count=True)
                segment_json_calls.clear()
                second = await client.expect_ok(op="replicate", run="held", count=True)
                assert first["records"] == second["records"] == len(records)
                assert segment_json_calls["loads"] == 0
            finally:
                await client.close()

        run_pair_scenario(scenario, tmp_path)


class TestReplicatingBackend:
    def test_appends_enqueue_and_compaction_is_refused(self, tmp_path):
        async def main():
            inner = open_backend(f"segment:{tmp_path / 'p'}")
            shipper = ReplicationShipper("127.0.0.1:1")  # never connected
            backend = ReplicatingBackend(inner, shipper)
            assert backend.inner is inner
            assert backend.name.startswith("replicated+")
            store = backend.store("r")
            store.append({"type": "begin"})
            store.append({"type": "event", "n": 1})
            assert shipper.pending == 2
            assert [p for _, p, _ in list(shipper._pending)] == [0, 1]
            assert store.record_count() == 2
            with pytest.raises(StorageError):
                store.compact()
            assert backend.stats()["replication"]["pending"] == 2
            store.close()
            # Positions continue from the on-disk count after a reopen.
            store = backend.store("r")
            store.append({"type": "event", "n": 2})
            assert [p for _, p, _ in list(shipper._pending)] == [0, 1, 2]
            store.close()
            await shipper.aclose()
            backend.close()

        asyncio.run(main())

    def test_drain_times_out_against_dead_follower(self, tmp_path):
        async def main():
            shipper = ReplicationShipper("127.0.0.1:1", retry_backoff=0.01)
            shipper.enqueue("r", 0, {"type": "begin"})
            assert not await shipper.drain(timeout=0.2)
            await shipper.aclose()

        asyncio.run(main())


def torn_store(root, program):
    """A segment store holding a run whose last record was torn."""
    run = RunGenerator(program, seed=5).random_run(6)
    backend = open_backend(f"segment:{root}")
    store = backend.store("r")
    store.append(begin_record(run.initial))
    for index, event in enumerate(run.events):
        store.append(event_record(index, event))
    store.close()
    backend.close()
    with open(store.path, "a", encoding="utf-8") as sink:
        sink.write('deadbeef {"type": "event", "ind')
    return run


class TestReplicatedTailRepair:
    """The wrapper counts the inner store's records when it opens; that
    count must not swallow the tail-repair warnings of the open."""

    def test_store_read_reports_the_repair(self, tmp_path):
        async def main():
            torn_store(tmp_path, churn_program())
            shipper = ReplicationShipper("127.0.0.1:1")  # never connected
            backend = ReplicatingBackend(open_backend(f"segment:{tmp_path}"), shipper)
            store = backend.store("r")
            _, warnings = store.read()
            store.close()
            await shipper.aclose()
            assert any("torn final record" in w for w in warnings)

        asyncio.run(main())

    def test_registry_run_reports_the_repair(self, tmp_path):
        async def main():
            program = churn_program()
            run = torn_store(tmp_path, program)
            shipper = ReplicationShipper("127.0.0.1:1")
            backend = ReplicatingBackend(open_backend(f"segment:{tmp_path}"), shipper)
            registry = ShardedRunRegistry(program, storage=backend)
            hosted, recovered = await registry.open("r")
            assert recovered and hosted.applied == len(run.events)
            await registry.close("r")
            await shipper.aclose()
            assert any("torn final record" in w for w in hosted.recovery_warnings)

        asyncio.run(main())


class TestReconcile:
    def test_reconcile_ships_missing_suffix(self, tmp_path):
        async def scenario(program, primary, follower, base):
            # Fabricate a "dead primary" store with records the follower
            # has never seen, plus one run it already half-knows.
            dead = open_backend(f"segment:{base / 'dead'}")
            store = dead.store("gone-1")
            records = [{"type": "begin"}, {"type": "event", "n": 1}]
            for record in records:
                store.append(record)
            store.close()
            client = await ServiceClient.connect(follower.host, follower.port)
            try:
                await client.expect_ok(
                    op="replicate", run="gone-1", records=records[:1]
                )
            finally:
                await client.close()
            report = await reconcile_with_follower(
                f"segment:{base / 'dead'}", f"{follower.host}:{follower.port}"
            )
            assert report.runs == 1
            assert report.shipped_records == 1  # only the missing suffix
            follower_backend = open_backend(f"segment:{base / 'follower'}")
            try:
                got, _ = follower_backend.read_records("gone-1")
                assert got == records
            finally:
                follower_backend.close()
            dead.close()
            # Idempotent: a second reconcile ships nothing.
            again = await reconcile_with_follower(
                f"segment:{base / 'dead'}", f"{follower.host}:{follower.port}"
            )
            assert again.shipped_records == 0 and again.already_complete == 1

        run_pair_scenario(scenario, tmp_path)
