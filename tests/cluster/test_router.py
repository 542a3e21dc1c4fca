"""Router behaviour: proxying, fan-out merges, retries, failover ops."""

from __future__ import annotations

import asyncio

import pytest

from cluster_harness import in_process_cluster
from repro.cluster import ClusterRouter, HashRing
from repro.service import ServiceClient
from repro.service.errors import ServiceError
from repro.workflow import RunGenerator
from repro.workflow.serialization import event_to_dict
from repro.workloads.generators import churn_program

NAMES = ["shard-0", "shard-1", "shard-2"]


def run_cluster_scenario(scenario, shard_names=NAMES, router_kwargs=None, **kwargs):
    program = churn_program()

    async def main():
        async with in_process_cluster(
            program, shard_names, router_kwargs=router_kwargs, **kwargs
        ) as (router_server, shards):
            host, port = router_server.address
            client = await ServiceClient.connect(host, port)
            try:
                return await scenario(program, client, router_server, shards)
            finally:
                await client.close()

    return asyncio.run(main())


class TestRouting:
    def test_ping_answered_by_router(self):
        async def scenario(program, client, router_server, shards):
            pong = await client.expect_ok(op="ping", id=3)
            assert pong["pong"] and pong["role"] == "router" and pong["id"] == 3

        run_cluster_scenario(scenario)

    def test_full_run_through_router(self):
        async def scenario(program, client, router_server, shards):
            run = RunGenerator(program, seed=4).random_run(8)
            await client.expect_ok(op="open", run="r-1")
            for seq, event in enumerate(run.events):
                response = await client.expect_ok(
                    op="submit", run="r-1", event=event_to_dict(event)
                )
                assert response["status"] == "applied" and response["seq"] == seq
            peer = program.schema.peers[0]
            view = await client.expect_ok(op="view", run="r-1", peer=peer)
            assert "instance" in view
            await client.expect_ok(op="close", run="r-1")

        run_cluster_scenario(scenario)

    def test_runs_actually_spread_across_shards(self):
        async def scenario(program, client, router_server, shards):
            router = router_server.router
            for index in range(24):
                await client.expect_ok(op="open", run=f"spread-{index}")
            owners = {
                router.owner(f"spread-{index}") for index in range(24)
            }
            assert len(owners) > 1  # more than one shard got work
            # The shard that owns a run is the one hosting it.
            for index in range(24):
                owner = router.owner(f"spread-{index}")
                stats = await client.expect_ok(op="stats", run=f"spread-{index}")
                server = shards[owner]
                assert f"spread-{index}" in server.service.registry.run_ids()
                assert stats["run_stats"]["run_id"] == f"spread-{index}"

        run_cluster_scenario(scenario)

    def test_unknown_op_and_malformed_lines(self):
        async def scenario(program, client, router_server, shards):
            response = await client.request(op="stats")  # fan-out path below
            assert response["ok"]
            bad = await client.request(op="fly")
            assert not bad["ok"] and bad["error"] == "protocol"

        run_cluster_scenario(scenario)


class TestFanOut:
    def test_merged_stats_and_metrics(self):
        async def scenario(program, client, router_server, shards):
            await client.expect_ok(op="open", run="s-1")
            stats = await client.expect_ok(op="stats")
            assert set(stats["shards"]) == set(NAMES)
            assert stats["cluster"]["router"]["requests"] >= 1
            metrics = await client.expect_ok(op="metrics")
            assert set(metrics["shards"]) == set(NAMES)
            assert "repro" in metrics["text"]

        run_cluster_scenario(scenario)

    def test_cluster_status_op(self):
        async def scenario(program, client, router_server, shards):
            status = await client.expect_ok(op="cluster", action="status")
            cluster = status["cluster"]
            assert set(cluster["nodes"]) == set(NAMES)
            assert cluster["vnodes"] == 64
            unknown = await client.request(op="cluster", action="dance")
            assert not unknown["ok"] and unknown["error"] == "protocol"
            kill = await client.request(op="cluster", action="kill", node="shard-0")
            assert not kill["ok"]  # no supervisor attached in-process

        run_cluster_scenario(scenario)

    def test_broadcast_shutdown_drains_every_shard(self):
        async def scenario(program, client, router_server, shards):
            await client.expect_ok(op="open", run="sd-1")
            response = await client.expect_ok(op="shutdown")
            assert response["shutting_down"]
            assert set(response["shards"]) == set(NAMES)
            for body in response["shards"].values():
                assert body["drained"]
            for server in shards.values():
                assert server.service.shutdown_requested.is_set()

        run_cluster_scenario(scenario)


class TestFailoverPlumbing:
    def test_dead_shard_yields_unavailable_for_plain_submit(self):
        async def scenario(program, client, router_server, shards):
            router = router_server.router
            run_id = "dead-1"
            owner = router.owner(run_id)
            await client.expect_ok(op="open", run=run_id)
            await shards[owner].stop()  # the owning shard goes away
            await router.aclose()  # a real kill severs pooled connections too
            run = RunGenerator(program, seed=1).random_run(1)
            response = await client.request(
                op="submit", run=run_id, event=event_to_dict(run.events[0])
            )
            # No seq key -> not retried -> unavailable surfaces.
            assert not response["ok"] and response["error"] == "unavailable"

        run_cluster_scenario(
            scenario, router_kwargs={"retry_timeout": 0.5, "retry_backoff": 0.01}
        )

    def test_repoint_redirects_without_moving_keys(self):
        async def scenario(program, client, router_server, shards):
            router = router_server.router
            run_id = "move-1"
            owner = router.owner(run_id)
            other = next(name for name in NAMES if name != owner)
            placements = {f"key-{i}": router.owner(f"key-{i}") for i in range(50)}
            await shards[owner].stop()
            router.repoint(owner, (shards[other].host, shards[other].port))
            # Addressing changed; placement did not.
            assert placements == {
                f"key-{i}": router.owner(f"key-{i}") for i in range(50)
            }
            opened = await client.expect_ok(op="open", run=run_id)
            assert opened["run"] == run_id
            assert run_id in shards[other].service.registry.run_ids()
            with pytest.raises(ServiceError):
                router.repoint("nope", ("localhost", 1))

        run_cluster_scenario(scenario)

    def test_reads_retry_through_a_restart(self):
        async def scenario(program, client, router_server, shards):
            router = router_server.router
            run_id = "flap-1"
            owner = router.owner(run_id)
            await client.expect_ok(op="open", run=run_id)

            async def read():
                return await client.request(op="stats", run=run_id, id=9)

            # Stop the owner, issue the read (it will retry), then bring
            # a replacement up at a fresh address and repoint.
            server = shards[owner]
            await server.stop()
            await router.aclose()  # a real kill severs pooled connections too
            task = asyncio.ensure_future(read())
            await asyncio.sleep(0.15)
            from repro.service import ServiceServer, WorkflowService

            replacement = ServiceServer(WorkflowService(program), port=0)
            await replacement.start()
            shards[owner] = replacement
            router.repoint(owner, (replacement.host, replacement.port))
            response = await task
            # The replacement had never heard of the run: the router
            # re-opened it transparently (lazy re-open on unknown_run).
            assert response["ok"] and response["id"] == 9
            assert router.counters["reopens"] >= 1
            await replacement.stop()

        run_cluster_scenario(
            scenario, router_kwargs={"retry_timeout": 5.0, "retry_backoff": 0.02}
        )


class TestRouterConstruction:
    def test_empty_cluster_rejected(self):
        with pytest.raises(ServiceError):
            ClusterRouter({})

    def test_ring_matches_standalone_ring(self):
        router = ClusterRouter({"a": ("h", 1), "b": ("h", 2)})
        ring = HashRing(["a", "b"])
        for index in range(100):
            assert router.owner(f"k-{index}") == ring.owner(f"k-{index}")


async def _closing_listener():
    """A listener that closes each connection it accepts once the peer
    hangs up; returns it and the list of connections it has closed."""
    closed = []

    async def on_connect(reader, writer):
        await reader.read()
        writer.close()
        await writer.wait_closed()
        closed.append(writer)

    listener = await asyncio.start_server(on_connect, "127.0.0.1", 0)
    return listener, closed


async def _close_listener(listener, closed, connections):
    """Wait until the listener has closed *connections* accepted ones."""
    async def all_closed():
        while len(closed) < connections:
            await asyncio.sleep(0.01)

    await asyncio.wait_for(all_closed(), timeout=2)
    listener.close()
    await listener.wait_closed()


class TestNodePool:
    def test_discard_wakes_a_starved_waiter(self):
        """Every pooled connection to a dead shard gets discarded while
        another task waits in acquire(): the waiter must wake and dial a
        replacement, not sleep forever (the promotion-stall regression)."""
        from repro.cluster.router import _NodePool

        async def main():
            listener, closed = await _closing_listener()
            port = listener.sockets[0].getsockname()[1]
            pool = _NodePool("127.0.0.1", port, size=2)
            first = await pool.acquire()
            second = await pool.acquire()
            waiter = asyncio.create_task(pool.acquire())
            await asyncio.sleep(0.05)
            assert not waiter.done()  # pool exhausted, genuinely blocked
            pool.discard(first)
            pool.discard(second)
            fresh = await asyncio.wait_for(waiter, timeout=2)
            assert not fresh.is_closing()
            pool.discard(fresh)
            await pool.close()
            await _close_listener(listener, closed, connections=3)

        asyncio.run(main())

    def test_every_starved_waiter_wakes_not_just_one(self):
        """With several tasks starved in acquire(), discarding the held
        connections must wake all of them — the first woken waiter's
        dead-connection cleanup must not swallow the wakeups of the
        rest (the second promotion-stall regression: handlers stranded
        on a repoint-orphaned pool with an empty queue)."""
        from repro.cluster.router import _NodePool

        async def main():
            listener, closed = await _closing_listener()
            port = listener.sockets[0].getsockname()[1]
            pool = _NodePool("127.0.0.1", port, size=2)
            first = await pool.acquire()
            second = await pool.acquire()
            waiters = [asyncio.create_task(pool.acquire()) for _ in range(2)]
            await asyncio.sleep(0.05)
            assert not any(task.done() for task in waiters)
            pool.discard(first)
            pool.discard(second)
            fresh = await asyncio.wait_for(asyncio.gather(*waiters), timeout=2)
            for connection in fresh:
                assert not connection.is_closing()
                pool.discard(connection)
            await pool.close()
            await _close_listener(listener, closed, connections=4)

        asyncio.run(main())
