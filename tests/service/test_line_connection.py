"""The line connection every server and client of the service reads with.

Its framing must not depend on how the stream was cut into reads: for
any byte stream split at any points, it returns the ``(line,
oversized)`` frames a pure framing of the whole stream returns.  A
client must see a reply over its cap as an error, never as a truncated
line, and keep a connection that stays framed.
"""

from __future__ import annotations

import asyncio
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster.router import ClusterRouter
from repro.service import ServiceClient, ServiceError
from repro.service import protocol
from repro.service.errors import ProtocolError
from repro.service.protocol import LineConnection, decode_line, encode_message


def reference_frames(stream: bytes, cap: int):
    """Today's cap rules applied to a whole stream at once."""
    frames = []
    position = 0
    while position < len(stream):
        newline = stream.find(b"\n", position)
        end = len(stream) if newline < 0 else newline
        if end - position > cap:
            frames.append((stream[position : position + cap], True))
        elif newline < 0:
            frames.append((stream[position:], False))
        else:
            frames.append((stream[position : newline + 1], False))
        position = end + 1
    return frames


class FakeTransport(asyncio.Transport):
    """What a socket transport does to a protocol, minus the socket."""

    def __init__(self) -> None:
        super().__init__()
        self.paused = False
        self.closed = False
        self.written = []

    def pause_reading(self) -> None:
        self.paused = True

    def resume_reading(self) -> None:
        self.paused = False

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True

    def write(self, data) -> None:
        self.written.append(bytes(data))


async def deliver(connection, transport, reads):
    """Feed *reads* as a transport would: into the protocol's buffer, one
    ``recv_into`` at a time, never while reading is paused."""
    for data in reads:
        while data:
            while transport.paused:
                await asyncio.sleep(0)
            buffer = connection.get_buffer(-1)
            assert len(buffer) > 0
            count = min(len(buffer), len(data))
            buffer[:count] = data[:count]
            connection.buffer_updated(count)
            buffer.release()
            data = data[count:]
        await asyncio.sleep(0)
    connection.eof_received()


async def collect(connection, lags):
    frames = []
    for turn in range(10_000):
        for _ in range(lags[turn % len(lags)] if lags else 0):
            await asyncio.sleep(0)
        line, oversized = await connection.readline()
        if not line and not oversized:
            return frames
        frames.append((line, oversized))
    raise AssertionError("the connection never reported EOF")


def framed(stream: bytes, cuts, cap: int, read_bytes: int, lags):
    """The frames a connection returns for *stream* read in pieces."""
    bounds = [0, *sorted(cut % (len(stream) + 1) for cut in cuts), len(stream)]
    reads = [stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]

    async def main():
        with mock.patch.object(protocol, "READ_BYTES", read_bytes):
            connection = LineConnection(cap)
        transport = FakeTransport()
        connection.connection_made(transport)
        feeding = asyncio.ensure_future(deliver(connection, transport, reads))
        frames = await asyncio.wait_for(collect(connection, lags), 10)
        await feeding
        return frames

    return asyncio.run(main())


@st.composite
def streams(draw):
    cap = draw(st.integers(2, 24))
    special = st.sampled_from([0, 1, cap - 1, cap, cap + 1, cap + 2, 3 * cap])
    lengths = draw(st.lists(st.one_of(special, st.integers(0, 4 * cap)), max_size=12))
    byte = st.sampled_from([b"a", b"b", b" ", b"\r", b"{", b"\xff"])
    lines = [b"".join(draw(st.lists(byte, min_size=n, max_size=n))) for n in lengths]
    stream = b"".join(line + b"\n" for line in lines)
    if lines and draw(st.booleans()):
        stream = stream[:-1]  # EOF mid-line
    return stream, cap


@settings(max_examples=300, deadline=None)
@given(
    streams(),
    st.lists(st.integers(0, 1 << 16), max_size=8),
    st.sampled_from([8, 16, 64, protocol.READ_BYTES]),
    st.lists(st.integers(0, 3), max_size=4),
)
@example((b"abcd\n" * 40, 4), [], 16, [3])  # pipelined lines in one read
@example((b"x" * 30 + b"\nok\n", 8), [3, 9, 17, 31], 8, [])  # over the cap, many reads
@example((b"y" * 9 + b"\n" + b"z" * 20, 8), [], 8, [1])  # over, then over at EOF
def test_framing_matches_the_reference(case, cuts, read_bytes, lags):
    stream, cap = case
    assert framed(stream, cuts, cap, read_bytes, lags) == reference_frames(stream, cap)


@pytest.mark.parametrize(
    "line, expected",
    [
        (b"12345678\n", [(b"12345678\n", False)]),  # exactly the cap
        (b"123456789\n", [(b"12345678", True)]),  # one byte over
        (b"1234", [(b"1234", False)]),  # EOF mid-line
    ],
)
def test_the_cap_boundary(line, expected):
    assert framed(line, [], 8, 16, []) == expected == reference_frames(line, 8)


def test_reading_pauses_behind_a_waiting_line_and_resumes():
    async def main():
        with mock.patch.object(protocol, "READ_BYTES", 16):
            connection = LineConnection(64)
        transport = FakeTransport()
        connection.connection_made(transport)
        data = b"abc\n" * 4
        buffer = connection.get_buffer(-1)
        buffer[: len(data)] = data
        connection.buffer_updated(len(data))
        buffer.release()
        paused = transport.paused
        lines = [await connection.readline() for _ in range(4)]
        return paused, transport.paused, lines

    paused, still_paused, lines = asyncio.run(main())
    assert paused and not still_paused
    assert lines == [(b"abc\n", False)] * 4


class TestOversizedReplies:
    """A reply over the client's cap is an error; the connection stays framed."""

    @staticmethod
    def serve(replies):
        async def answer(reader, writer):
            for reply in replies:
                if not await reader.readline():
                    break
                writer.write(reply)
                await writer.drain()
            writer.close()

        return asyncio.start_server(answer, "127.0.0.1", 0)

    def test_roundtrip_raises_and_keeps_the_connection(self):
        async def main():
            listener = await self.serve([b"x" * 100 + b"\n", b'{"ok":true}\n', b"torn"])
            host, port = listener.sockets[0].getsockname()[:2]
            connection = await LineConnection.connect(host, port, max_line_bytes=64)
            try:
                with pytest.raises(ProtocolError, match="exceeds 64 bytes"):
                    await connection.roundtrip(b"first\n")
                assert await connection.roundtrip(b"second\n") == b'{"ok":true}\n'
                with pytest.raises(ConnectionResetError):
                    await connection.roundtrip(b"third\n")
            finally:
                connection.close()
                listener.close()

        asyncio.run(main())

    def test_service_client_raises_a_service_error(self):
        async def main():
            listener = await self.serve([b"x" * 100 + b"\n"])
            host, port = listener.sockets[0].getsockname()[:2]
            client = ServiceClient(
                await LineConnection.connect(host, port, max_line_bytes=64)
            )
            try:
                with pytest.raises(ServiceError, match="exceeds"):
                    await client.request(op="ping")
            finally:
                await client.close()
                listener.close()

        asyncio.run(main())

    def test_the_router_answers_with_an_error_envelope(self):
        async def main():
            listener = await self.serve(
                [b"x" * 100 + b"\n", encode_message({"ok": True, "id": 2})]
            )
            host, port = listener.sockets[0].getsockname()[:2]
            router = ClusterRouter({"shard0": (host, port)})
            try:
                with mock.patch("repro.cluster.router.MAX_REPLY_BYTES", 64):
                    first = await router.handle_line(
                        encode_message({"op": "view", "run": "r", "peer": "p", "id": 1})
                    )
                second = await router.handle_line(
                    encode_message({"op": "view", "run": "r", "peer": "p", "id": 2})
                )
            finally:
                await router.aclose()
                listener.close()
            return decode_line(first), decode_line(second)

        first, second = asyncio.run(main())
        assert first["ok"] is False and first["error"] == "service"
        assert first["id"] == 1 and "exceeds 64 bytes" in first["message"]
        assert second == {"ok": True, "id": 2}
