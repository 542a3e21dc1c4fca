"""The JSON-lines wire protocol of the workflow service.

One request per line, one response per line, both JSON objects.  Every
request carries an ``op`` and an optional client-chosen ``id`` that the
response echoes (so clients may pipeline).  Success responses have
``"ok": true``; failures have ``"ok": false`` plus ``error`` (a stable
machine-readable code) and ``message``.

Operations
----------

``open``      ``{"op": "open", "run": <id>}`` — host a run (recovering
              it from its journal when one exists).  Response:
              ``{"ok": true, "run": ..., "recovered": bool,
              "applied": int}``.
``submit``    ``{"op": "submit", "run": <id>, "event": {"rule": name,
              "valuation": {...}}}`` — the event encoding of
              :func:`repro.workflow.serialization.event_to_dict`.
              Response carries ``status`` (``applied`` / ``quarantined``
              / ``rejected_backpressure`` / ``rejected_budget``),
              ``seq``, ``attempts``, ``recovered`` and the acting
              peer's post-event view ``version``.  An optional ``seq``
              field on the *request* is an idempotency key: the
              client's expected sequence number for this event.  A
              submit whose ``seq`` the run has already applied is
              acknowledged again (``"deduped": true``) instead of being
              re-applied, which makes retries through the cluster
              router exactly-once; a ``seq`` *ahead* of the run is a
              gap and is rejected.
``submit_batch`` ``{"op": "submit_batch", "run": <id>, "events":
              [{"event": {...}, "seq": n?}, ...]}`` — several events
              for one run in a single request.  The server enqueues
              them together, so the broker's drain worker can apply
              them as one amortized batch; the response's ``results``
              list carries one per-event outcome object (the same
              fields as a ``submit`` response) in request order, and
              per-event semantics — acks, journal records, provenance,
              view versions — are identical to submitting them one at
              a time.
``view``      ``{"op": "view", "run": <id>, "peer": p}`` — the peer's
              materialized view instance and its ``version``.
``explain``   ``{"op": "explain", "run": <id>, "peer": p,
              "index": i?}`` — the minimal p-faithful scenario of the
              hosted run (or of one event when ``index`` given), served
              by the per-(run, peer) incremental explainer.
``applicable`` ``{"op": "applicable", "run": <id>, "peer": p?}`` — the
              events currently applicable at the run's instance (for
              one peer when ``peer`` given), served by the run's
              delta-maintained applicable-event index.  Response:
              ``{"ok": true, "run": ..., "applied": int, "count": int,
              "events": [{"rule": ..., "valuation": {...}}, ...]}``.
``stats``     ``{"op": "stats", "run": <id>?}`` — service-wide or
              per-run counters (including the process-wide query
              evaluation counters under ``queries``).
``metrics``   ``{"op": "metrics"}`` — the process-wide metrics registry
              rendered as Prometheus text exposition format (version
              0.0.4) in the response's ``text`` field, plus the
              structured ``snapshot``.
``provenance`` ``{"op": "provenance", "run": <id>, "relation": R?,
              "key": k?, "peer": p?}`` — provenance queries over the
              hosted run's per-event provenance log: which events
              touched relation ``R`` (or its key ``k``, in the value
              encoding of ``submit``: ``{"$fresh": n}`` for a fresh
              value), or which events changed peer ``p``'s view.
              Without a filter the whole log is returned under
              ``records``.
``provenance_rank`` ``{"op": "provenance_rank", "run": <id>, "peer": p,
              "relation": R?, "key": k?, "method": m?, "samples": s?,
              "seed": n?}`` — Shapley-value attribution of the hosted
              run's events toward a target visible to peer ``p``: the
              fact ``R[k]`` (or all of ``R`` without a key, or the
              peer's whole view without a relation); ``k`` is in the
              value encoding of ``submit`` or is the value's repr, as
              responses cite it, and a relation the peer has no view
              of is refused (``service``).  ``method`` is
              ``auto`` (default), ``exact`` or ``sampled``; sampling is
              deterministic in ``seed``.  The response's ``ranking``
              lists events most-important first, each merged with its
              provenance citation; ``baseline``, ``grand`` and
              ``total`` expose the efficiency identity
              ``total == grand - baseline``.  Ranking replays event
              coalitions on the server's event loop, so a ranking that
              would take more than ``MAX_RANK_STEPS`` engine steps (or
              an ``exact`` one over more than 16 events) is refused
              (``service``).
``replicate`` ``{"op": "replicate", "run": <id>, "records": [...]}`` —
              append journal records shipped by another shard's
              primary into this server's storage backend (the
              follower half of the cluster replication contract; see
              ``docs/CLUSTER.md``).  With ``"count": true`` instead of
              ``records`` the server reports how many records it holds
              for the run, which is the shipper's resume/reconcile
              cursor.
``close``     ``{"op": "close", "run": <id>}`` — stop hosting, sealing
              the journal with status ``completed``.
``shutdown``  ``{"op": "shutdown"}`` — drain in-flight mailboxes,
              persist every hosted run's records through the storage
              backend, and only then acknowledge (``"drained": true``,
              with ``"synced_runs"``: the number of runs synced) and
              stop the server — when the response arrives, everything
              acknowledged before it is durably applied.
``ping``      liveness probe.

Versioning
----------

Every response envelope carries ``"protocol": PROTOCOL_VERSION``.
Requests *may* carry a ``protocol`` field; the server rejects requests
that demand a newer protocol than it speaks (``ProtocolError``), and
ignores older ones — version 2 is a strict superset of version 1.

Error codes
-----------

The machine-readable ``error`` codes of failure responses are the keys
of :data:`repro.service.errors.ERROR_CODES` — the single registry the
server, this documentation and the load generator share.
"""

from __future__ import annotations

import asyncio
import json
import mmap
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple as PyTuple

from .errors import ProtocolError

__all__ = [
    "LineConnection",
    "MAX_LINE_BYTES",
    "MAX_REPLY_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "READ_BYTES",
    "decode_line",
    "encode_message",
    "error_response",
    "ok_response",
    "parse_request",
    "start_line_server",
]

#: Version 2 added the ``metrics`` and ``provenance`` ops and the
#: ``protocol`` field on every response envelope.  Version 3 added the
#: ``replicate`` op, the idempotent ``seq`` field on ``submit``, the
#: drain-before-ack ``shutdown`` contract and structured error
#: envelopes for oversized request lines.  Version 4 added the
#: ``submit_batch`` op (several events to one run in a single request,
#: per-event outcomes in order).  Version 5 added the
#: ``provenance_rank`` op (Shapley-ranked provenance attributions for a
#: peer-visible target).
PROTOCOL_VERSION = 5

#: Request lines longer than this are rejected with a structured
#: ``protocol`` error envelope instead of dropping the connection.
MAX_LINE_BYTES = 1 << 20

#: A client's cap on one reply line: a ``metrics`` or ``applicable``
#: answer can be far longer than any request.
MAX_REPLY_BYTES = 1 << 22

#: The most one read brings in, and the size of the buffer each
#: connection keeps for its reads.
READ_BYTES = 1 << 18


def _read_buffer(size: int) -> mmap.mmap:
    """An anonymous mapping: a page of it costs memory once a read writes it."""
    return mmap.mmap(-1, size)

#: Every operation the server understands.
OPS = (
    "open",
    "submit",
    "submit_batch",
    "view",
    "explain",
    "applicable",
    "stats",
    "metrics",
    "provenance",
    "provenance_rank",
    "replicate",
    "close",
    "shutdown",
    "ping",
)

#: Ops that must name a run.
_RUN_OPS = frozenset(
    {
        "open",
        "submit",
        "submit_batch",
        "view",
        "explain",
        "applicable",
        "provenance",
        "provenance_rank",
        "replicate",
        "close",
    }
)
#: Ops that must name a peer.
_PEER_OPS = frozenset({"view", "explain", "provenance_rank"})


class LineConnection(asyncio.BufferedProtocol):
    """One newline-framed connection, read into a buffer it keeps.

    asyncio's stream transport reads each chunk with ``sock.recv`` into a
    fresh 256 KiB buffer, which the allocator may serve with an ``mmap``
    and page faults on every request.  This protocol receives with
    ``recv_into`` into one buffer of :data:`READ_BYTES` that it keeps
    for the life of the connection, an anonymous mapping of which only
    the pages reads have written are resident, and wakes its reader
    only when a whole line, the end of the stream or an oversized line
    is ready.

    Framing keeps a hard per-line cap: a line whose bytes before the
    newline number at most ``max_line_bytes`` comes back whole; a longer
    one is *drained* through to its terminating newline and reported as
    oversized, with its first ``max_line_bytes`` bytes for diagnostics,
    so the connection stays framed and the peer can be answered with an
    error envelope instead of a hangup.  An unterminated fragment at the
    end of the stream comes back as it is.  Reading pauses past a
    high-water mark, half the buffer held behind a line the reader has
    not taken, and resumes once the reader catches up.

    Servers use it through :func:`start_line_server`; clients dial with
    :meth:`connect` and exchange lines with :meth:`roundtrip`.
    """

    def __init__(
        self,
        max_line_bytes: int = MAX_LINE_BYTES,
        on_connect: Optional[Callable[["LineConnection"], Awaitable[None]]] = None,
    ) -> None:
        if max_line_bytes < 2:
            raise ProtocolError("the line cap must be at least 2 bytes")
        self.max_line_bytes = max_line_bytes
        self._on_connect = on_connect
        self._loop = asyncio.get_running_loop()
        self._transport: Optional[asyncio.Transport] = None
        self._task: Optional["asyncio.Task[None]"] = None
        self._read_bytes = READ_BYTES
        self._buffer = _read_buffer(READ_BYTES)
        #: Unconsumed bytes are ``_buffer[_start:_end]``; ``_newline`` is
        #: the first newline among them, or -1 when they hold none.
        self._start = 0
        self._end = 0
        self._newline = -1
        #: The capped prefix of an oversized line, and whether its bytes
        #: are still being dropped while its newline has not arrived.
        self._oversized: Optional[bytes] = None
        self._discarding = False
        self._eof = False
        self._reading_paused = False
        self._waiter: Optional["asyncio.Future[None]"] = None
        self._writing_paused = False
        self._drain_waiter: Optional["asyncio.Future[None]"] = None
        self._lost = False

    @classmethod
    async def connect(
        cls, host: str, port: int, max_line_bytes: int = MAX_REPLY_BYTES
    ) -> "LineConnection":
        """The client form: a connection dialled to *host*:*port*."""
        loop = asyncio.get_running_loop()
        _, connection = await loop.create_connection(
            lambda: cls(max_line_bytes), host, port
        )
        return connection

    # ------------------------------------------------------------------
    # The transport's side
    # ------------------------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        if self._on_connect is not None:
            self._task = self._loop.create_task(self._on_connect(self))

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._end == 0 and len(self._buffer) > self._read_bytes:
            self._buffer = _read_buffer(self._read_bytes)  # a long line has gone
        elif len(self._buffer) - self._end < self._read_bytes // 4:
            self._make_room()
        return memoryview(self._buffer)[self._end : self._end + self._read_bytes]

    def buffer_updated(self, nbytes: int) -> None:
        scan_from = self._end
        self._end += nbytes
        if self._discarding:
            newline = self._buffer.find(b"\n", scan_from, self._end)
            if newline < 0:
                self._start = self._end = 0  # still inside the oversized line
                return
            self._discarding = False
            self._start = scan_from = newline + 1
        if self._newline < 0:
            self._newline = self._buffer.find(b"\n", scan_from, self._end)
            if self._newline < 0:
                self._settle()
        if self._has_frame():
            self._wake()
            if (
                not self._reading_paused
                and self._end - self._start >= self._read_bytes // 2
            ):
                self._reading_paused = True
                self._transport.pause_reading()  # type: ignore[union-attr]

    def eof_received(self) -> bool:
        self._eof = True
        self._wake()
        return True  # stay open to write the answers still owed

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._eof = self._lost = True
        self._wake()
        if self._drain_waiter is not None and not self._drain_waiter.done():
            self._drain_waiter.set_result(None)

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        if self._drain_waiter is not None and not self._drain_waiter.done():
            self._drain_waiter.set_result(None)

    # ------------------------------------------------------------------
    # Framing
    # ------------------------------------------------------------------

    def _make_room(self) -> None:
        """Move the unconsumed bytes to the front, growing for a long line."""
        pending = self._buffer[self._start : self._end]
        if len(self._buffer) - len(pending) < self._read_bytes // 4:
            self._buffer = _read_buffer(len(pending) + self._read_bytes)
        self._buffer[: len(pending)] = pending
        if self._newline >= 0:
            self._newline -= self._start
        self._start, self._end = 0, len(pending)

    def _settle(self) -> None:
        """With no newline pending: rewind an empty buffer, or start
        dropping a line that has outgrown the cap."""
        if self._start == self._end:
            self._start = self._end = 0
        elif self._oversized is None and self._end - self._start > self.max_line_bytes:
            start = self._start
            self._oversized = self._buffer[start : start + self.max_line_bytes]
            self._discarding = True
            self._start = self._end = 0

    def _has_frame(self) -> bool:
        return self._newline >= 0 or (
            self._oversized is not None and not self._discarding
        )

    def _frame(self) -> Optional[PyTuple[bytes, bool]]:
        """The next ``(line, oversized)``, or None until more bytes arrive."""
        if self._oversized is not None:
            if self._discarding and not self._eof:
                return None
            frame = self._oversized, True
            self._oversized, self._discarding = None, False
        elif self._newline >= 0:
            start, newline = self._start, self._newline
            if newline - start <= self.max_line_bytes:
                frame = self._buffer[start : newline + 1], False
            else:
                frame = self._buffer[start : start + self.max_line_bytes], True
            self._start = newline + 1
            self._newline = self._buffer.find(b"\n", self._start, self._end)
        elif self._eof:
            frame = self._buffer[self._start : self._end], False
            self._start = self._end
        else:
            return None
        if self._newline < 0:
            self._settle()
        if self._reading_paused and not (
            self._has_frame() and self._end - self._start >= self._read_bytes // 2
        ):
            self._reading_paused = False
            self._transport.resume_reading()  # type: ignore[union-attr]
        return frame

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    # ------------------------------------------------------------------
    # The reader's and the writer's side
    # ------------------------------------------------------------------

    async def readline(self) -> PyTuple[bytes, bool]:
        """``(line, oversized)`` — ``(b"", False)`` at EOF.

        *line* includes its newline when one arrived; an unterminated
        trailing fragment at EOF is returned as-is.  When *oversized* is
        True the line exceeded the cap: its bytes were consumed and
        discarded, and *line* is only the (capped) prefix.
        """
        while True:
            frame = self._frame()
            if frame is not None:
                return frame
            self._waiter = self._loop.create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None

    def write(self, data: bytes) -> None:
        self._transport.write(data)  # type: ignore[union-attr]

    async def drain(self) -> None:
        """Wait until the transport accepts more writes."""
        if self._writing_paused and not self._lost:
            self._drain_waiter = self._loop.create_future()
            try:
                await self._drain_waiter
            finally:
                self._drain_waiter = None
        if self._lost:
            raise ConnectionResetError("connection lost")

    async def roundtrip(self, line: bytes) -> bytes:
        """The client form: send one request line, return its reply line.

        A reply over the cap raises :class:`ProtocolError` (the
        connection stays framed); a connection that ends before a whole
        reply raises :class:`ConnectionResetError`.
        """
        self.write(line)
        await self.drain()
        reply, oversized = await self.readline()
        if oversized:
            raise ProtocolError(
                f"reply line exceeds {self.max_line_bytes} bytes and was discarded"
            )
        if not reply.endswith(b"\n"):
            raise ConnectionResetError("connection closed before a whole reply")
        return reply

    def is_closing(self) -> bool:
        return self._eof or self._transport is None or self._transport.is_closing()

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()


async def _converse(
    connection: LineConnection,
    answer: Callable[[bytes], Awaitable[bytes]],
    stop: Optional[asyncio.Event],
) -> None:
    """The one connection loop: answer each request line in order."""
    try:
        while True:
            line, oversized = await connection.readline()
            if oversized:
                # The line was drained through its newline, so the
                # connection stays framed: reply with a structured
                # envelope instead of hanging up on the client.
                reply = encode_message(
                    error_response(
                        None,
                        "protocol",
                        f"request line exceeds {connection.max_line_bytes} bytes "
                        "and was discarded",
                    )
                )
            elif not line:
                break
            else:
                reply = await answer(line)
            connection.write(reply)
            await connection.drain()
            if stop is not None and stop.is_set():
                break
    except OSError:  # the peer is gone
        pass
    finally:
        connection.close()


async def start_line_server(
    answer: Callable[[bytes], Awaitable[bytes]],
    host: str,
    port: int,
    max_line_bytes: int = MAX_LINE_BYTES,
    stop: Optional[asyncio.Event] = None,
) -> asyncio.AbstractServer:
    """Listen on *host*:*port*, answering each request line with *answer*.

    Requests on one connection are answered strictly in order.  Once
    *stop* is set, a connection closes after the reply it is writing.
    """
    loop = asyncio.get_running_loop()
    return await loop.create_server(
        lambda: LineConnection(
            max_line_bytes,
            on_connect=lambda connection: _converse(connection, answer, stop),
        ),
        host,
        port,
    )


def encode_message(message: Dict[str, Any]) -> bytes:
    """One protocol message as a JSON line (UTF-8, newline-terminated)."""
    return (json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a message dict or raise :class:`ProtocolError`."""
    text = line.decode("utf-8", errors="replace").strip()
    if not text:
        raise ProtocolError("empty protocol line")
    try:
        message = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("protocol messages must be JSON objects")
    return message


def parse_request(message: Dict[str, Any]) -> PyTuple[str, Dict[str, Any]]:
    """Validate a request message; returns ``(op, message)``.

    Checks the op is known, that run/peer are present where the op
    requires them, and that the fields handlers read have the right
    types, so handlers can assume a well-formed request.
    """
    op = message.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {', '.join(OPS)})")
    requested = message.get("protocol")
    if requested is not None:
        if not isinstance(requested, int):
            raise ProtocolError("the 'protocol' field must be an integer")
        if requested > PROTOCOL_VERSION:
            raise ProtocolError(
                f"request demands protocol {requested}, "
                f"server speaks {PROTOCOL_VERSION}"
            )
    if op in _RUN_OPS and not isinstance(message.get("run"), str):
        raise ProtocolError(f"op {op!r} requires a string 'run' field")
    if op in _PEER_OPS and not isinstance(message.get("peer"), str):
        raise ProtocolError(f"op {op!r} requires a string 'peer' field")
    if op == "open":
        initial = message.get("initial")
        if initial is not None and not isinstance(initial, dict):
            raise ProtocolError("the 'initial' field must be an instance object")
    if op == "explain" and "index" in message:
        index = message["index"]
        if not isinstance(index, int) or index < 0:
            raise ProtocolError("the 'index' field must be a non-negative integer")
    if op in ("provenance", "provenance_rank"):
        relation = message.get("relation")
        if relation is not None and not isinstance(relation, str):
            raise ProtocolError("the 'relation' field must be a string")
    if op == "stats":
        run = message.get("run")
        if run is not None and not isinstance(run, str):
            raise ProtocolError("the 'run' field of 'stats' must be a string")
    if op == "submit":
        if not isinstance(message.get("event"), dict):
            raise ProtocolError("op 'submit' requires an 'event' object")
        seq = message.get("seq")
        if seq is not None and (not isinstance(seq, int) or seq < 0):
            raise ProtocolError(
                "the 'seq' idempotency key must be a non-negative integer"
            )
    if op == "submit_batch":
        events = message.get("events")
        if not isinstance(events, list) or not events:
            raise ProtocolError(
                "op 'submit_batch' requires a non-empty 'events' list"
            )
        for entry in events:
            if not isinstance(entry, dict) or not isinstance(
                entry.get("event"), dict
            ):
                raise ProtocolError(
                    "each 'submit_batch' entry must be an object with an "
                    "'event' object"
                )
            seq = entry.get("seq")
            if seq is not None and (not isinstance(seq, int) or seq < 0):
                raise ProtocolError(
                    "the 'seq' idempotency key must be a non-negative integer"
                )
    if op == "provenance_rank":
        method = message.get("method")
        if method is not None and method not in ("auto", "exact", "sampled"):
            raise ProtocolError(
                "the 'method' field must be 'auto', 'exact' or 'sampled'"
            )
        for field, least in (("samples", 1), ("seed", 0)):
            count = message.get(field)
            if count is not None and (not isinstance(count, int) or count < least):
                raise ProtocolError(
                    f"the {field!r} field must be an integer >= {least}"
                )
        if message.get("key") is not None and message.get("relation") is None:
            raise ProtocolError("a target 'key' needs a target 'relation'")
    if op == "replicate":
        records = message.get("records")
        if not message.get("count") and not isinstance(records, list):
            raise ProtocolError(
                "op 'replicate' requires a 'records' list (or 'count': true)"
            )
    return op, message


def ok_response(request_id: Optional[Any] = None, **fields: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {"ok": True, "protocol": PROTOCOL_VERSION, **fields}
    if request_id is not None:
        response["id"] = request_id
    return response


def error_response(
    request_id: Optional[Any], code: str, message: str
) -> Dict[str, Any]:
    response: Dict[str, Any] = {
        "ok": False,
        "protocol": PROTOCOL_VERSION,
        "error": code,
        "message": message,
    }
    if request_id is not None:
        response["id"] = request_id
    return response
