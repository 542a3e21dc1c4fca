"""A router answers every request line the way a shard does.

A line holding only whitespace is a protocol error on a lone server.
Behind a router it must be answered too, with the same bytes, or a
client that waits for each reply hangs.
"""

from __future__ import annotations

import asyncio

from repro.cluster.router import ClusterRouter, RouterServer
from repro.service import ServiceServer, WorkflowService
from repro.service.protocol import decode_line, encode_message
from repro.workloads.generators import churn_program


def test_a_blank_line_is_answered_alike_directly_and_through_the_router():
    async def exchange(address):
        reader, writer = await asyncio.open_connection(*address)
        try:
            writer.write(b"\n" + encode_message({"op": "ping", "id": 7}))
            await writer.drain()
            return [await asyncio.wait_for(reader.readline(), 5) for _ in range(2)]
        finally:
            writer.close()
            await writer.wait_closed()

    async def main():
        server = ServiceServer(WorkflowService(churn_program()), port=0)
        await server.start()
        front = RouterServer(ClusterRouter({"shard0": (server.host, server.port)}))
        await front.start()
        try:
            return (
                await exchange((server.host, server.port)),
                await exchange(front.address),
            )
        finally:
            await front.aclose()
            await server.stop()

    direct, routed = asyncio.run(main())
    assert direct[0] == routed[0]
    blank = decode_line(direct[0])
    assert blank["ok"] is False and blank["error"] == "protocol"
    pong, routed_pong = decode_line(direct[1]), decode_line(routed[1])
    assert routed_pong.pop("role") == "router"
    assert pong == routed_pong == {"ok": True, "pong": True, "protocol": 5, "id": 7}
