"""Serving a request allocates nothing the size of a read.

A connection reads into one buffer it keeps, so the transient memory of
a request is its own objects.  ``tracemalloc`` counts Python's own
allocations, whatever allocator sits below it: over 100 submits on one
connection, the peak may exceed the final level by only a small margin.
A 256 KiB read buffer allocated per read shows as a gap of about that
size.
"""

from __future__ import annotations

import asyncio
import tracemalloc

import pytest

from repro.cluster.router import ClusterRouter, RouterServer
from repro.service import ServiceClient, ServiceServer, WorkflowService
from repro.workflow import RunGenerator
from repro.workflow.serialization import event_to_dict
from repro.workloads.generators import churn_program

SUBMITS = 100
GAP_BYTES = 64 * 1024


def transient_bytes(routed: bool) -> int:
    """Peak minus final traced memory over SUBMITS submits on one connection."""
    program = churn_program()
    events = list(RunGenerator(program, seed=5).random_run(SUBMITS + 5).events)
    assert len(events) == SUBMITS + 5

    async def main() -> int:
        server = ServiceServer(WorkflowService(program), port=0)
        await server.start()
        address = (server.host, server.port)
        front = None
        if routed:
            front = RouterServer(ClusterRouter({"shard0": address}))
            await front.start()
            address = front.address
        client = await ServiceClient.connect(*address)
        try:
            await client.expect_ok(op="open", run="r")
            for event in events[:5]:  # every connection and pool slot is up
                await client.expect_ok(op="submit", run="r", event=event_to_dict(event))
            wire = [event_to_dict(event) for event in events[5:]]
            tracemalloc.start()
            try:
                for event in wire:
                    await client.expect_ok(op="submit", run="r", event=event)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        finally:
            await client.close()
            if front is not None:
                await front.aclose()
            await server.stop()
        return peak - current

    return asyncio.run(main())


@pytest.mark.parametrize("routed", [False, True], ids=["server", "routed"])
def test_a_request_allocates_no_read_buffer(routed):
    gap = transient_bytes(routed)
    assert gap < GAP_BYTES, f"peak exceeded the final level by {gap} bytes"
