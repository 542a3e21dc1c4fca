"""E14: the multi-run service — throughput and tail latency under load.

(The issue tracking this experiment numbered it E12; E12 was already
the PCP gadget, so the service experiment is E14.)

Drives the full TCP stack (loadgen client → JSON-lines protocol →
broker mailboxes → sharded registry → journals off) at 1, 8 and 64
concurrent runs with view reads interleaved.  Expected shape:
events/sec grows with run concurrency (per-run FIFO is the only
serialization point).  A hosted run's views live in its dataflow
graph, materialized on first read and patched per event; E14b prices
that patching against recomputing the view from scratch.  (The
``--no-cache-views`` ablation that served every read from scratch is
gone with the knob; EXPERIMENTS.md records what it measured.)
"""

from __future__ import annotations

import asyncio

import pytest

from conftest import wall_time
from repro.analysis import print_table
from repro.service import ServiceServer, WorkflowService, run_loadgen
from repro.workloads import churn_program

EVENTS_PER_RUN = 12
CONCURRENCY = (1, 8, 64)


def drive(
    runs: int,
    view_every: int = 3,
    clients: int = 1,
    batch_size: int = 1,
    events_per_run: int = EVENTS_PER_RUN,
):
    """One loadgen session against a fresh in-process server."""

    async def main():
        service = WorkflowService(churn_program(), batch_size=batch_size)
        server = ServiceServer(service, port=0)
        await server.start()
        try:
            return await run_loadgen(
                service.program,
                server.host,
                server.port,
                runs=runs,
                events_per_run=events_per_run,
                seed=runs,
                verify=False,
                view_every=view_every,
                clients=clients,
                batch_size=batch_size,
            )
        finally:
            await server.stop()

    return asyncio.run(main())


@pytest.mark.parametrize("runs", CONCURRENCY)
def test_cached_service_under_load(benchmark, runs):
    report = benchmark.pedantic(
        lambda: drive(runs), rounds=1, iterations=1, warmup_rounds=1
    )
    assert report.clean
    assert report.applied == runs * EVENTS_PER_RUN


def test_e14_table(benchmark):
    rows = []
    for runs in CONCURRENCY:
        report = drive(runs)
        assert report.clean
        rows.append(
            [
                runs,
                report.applied,
                f"{report.events_per_second:.0f}",
                f"{report.p50_ms:.2f}",
                f"{report.p99_ms:.2f}",
            ]
        )
    print_table(
        "E14: service throughput/latency (a view read every third event)",
        ["runs", "events", "events/s", "p50 ms", "p99 ms"],
        rows,
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e14_batch_table(benchmark):
    """Batched submission + drain: events/s at batch sizes 1, 8, 64.

    ``batch_size`` sets both the client chunking (``submit_batch``)
    and the broker's drain batching, so the column isolates how much
    per-event wire + wakeup overhead batching amortizes away.  The
    multi-client rows partition the runs over 4 connections instead of
    one connection per run.
    """
    rows = []
    for clients in (1, 4):
        for batch in (1, 8, 64):
            report = drive(
                runs=8,
                view_every=0,
                clients=clients,
                batch_size=batch,
                events_per_run=64,
            )
            assert report.clean
            assert report.applied == 8 * 64
            per_client = (
                " ".join(
                    f"{stats.events_per_second:.0f}"
                    for stats in report.client_stats
                )
                or "-"
            )
            rows.append(
                [
                    clients,
                    batch,
                    report.applied,
                    f"{report.events_per_second:.0f}",
                    f"{report.p50_ms:.2f}",
                    per_client,
                ]
            )
    print_table(
        "E14c: batched submission/drain (clients x batch size)",
        ["clients", "batch", "events", "events/s", "p50 ms", "per-client ev/s"],
        rows,
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e14_maintenance_table(benchmark):
    """The materialized view's asymptotic payoff, isolated from the wire.

    A hosted run's graph patches a materialized view in O(|delta|) per
    event; recomputing it costs O(|I|), so the scratch column grows with
    instance size while the graph column stays flat.  Each timed pass
    patches a fresh fork of the graph, so every pass does the same work.
    """
    from repro.dataflow import DeltaGraph
    from repro.workflow import Event, FreshValue, Instance, Var
    from repro.workflow.engine import apply_event_with_delta

    program = churn_program()
    schema = program.schema
    make = program.rule("make")
    probe = 50  # events measured at each size

    rows = []
    instance = Instance.empty(schema.schema)
    next_fresh = 0
    for size in (100, 400, 1600):
        while instance.size() < size:
            event = Event(make, {Var("x"): FreshValue(next_fresh)})
            next_fresh += 1
            instance, _ = apply_event_with_delta(schema, instance, event)
        graph = DeltaGraph(schema, instance, peers=["maker"])
        graph.snapshot("maker")

        steps = []
        for _ in range(probe):
            event = Event(make, {Var("x"): FreshValue(next_fresh)})
            next_fresh += 1
            successor, delta = apply_event_with_delta(schema, instance, event)
            steps.append((delta, successor))
            instance = successor

        def maintain():
            patched = graph.fork()
            for delta, successor in steps:
                patched.push(delta, successor)
            return patched

        def scratch():
            for _, successor in steps:
                schema.view_instance(successor, "maker")

        graph_us = wall_time(maintain) / probe * 1e6
        scratch_us = wall_time(scratch) / probe * 1e6
        assert maintain().snapshot("maker") == schema.view_instance(instance, "maker")
        rows.append(
            [
                instance.size(),
                f"{graph_us:.1f}",
                f"{scratch_us:.1f}",
                f"{scratch_us / graph_us:.1f}x",
            ]
        )
    print_table(
        "E14b: per-event view refresh (graph patch O(|delta|) vs scratch O(|I|))",
        ["instance size", "graph us/event", "scratch us/event", "speedup"],
        rows,
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
