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
from typing import Any, Dict, Optional, Tuple as PyTuple

from .errors import ProtocolError

__all__ = [
    "LineReader",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "decode_line",
    "encode_message",
    "error_response",
    "ok_response",
    "parse_request",
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


class LineReader:
    """Newline-framed reads with a hard per-line cap.

    ``asyncio.StreamReader.readline`` raises ``ValueError`` on an
    over-limit line *and clears its buffer*, which desynchronizes the
    framing and historically made the server drop the whole connection.
    This reader frames lines itself: a line at or under ``max_bytes``
    is returned whole; a longer one is *drained* through to its
    terminating newline and reported as oversized — the connection
    stays framed and usable, and the caller can answer with a
    structured error envelope instead of a hangup.
    """

    def __init__(
        self, reader: asyncio.StreamReader, max_bytes: int = MAX_LINE_BYTES
    ) -> None:
        if max_bytes < 2:
            raise ProtocolError("the line cap must be at least 2 bytes")
        self._reader = reader
        self.max_bytes = max_bytes
        self._buffer = bytearray()
        self.oversized_lines = 0

    async def readline(self) -> PyTuple[bytes, bool]:
        """``(line, oversized)`` — ``(b"", False)`` at EOF.

        *line* includes its newline when one arrived; an unterminated
        trailing fragment at EOF is returned as-is (matching
        ``StreamReader.readline``).  When *oversized* is True the line
        exceeded the cap: its bytes were consumed and discarded, and
        *line* is only the (capped) prefix, for diagnostics.
        """
        while True:
            newline = self._buffer.find(b"\n")
            if 0 <= newline <= self.max_bytes:
                line = bytes(self._buffer[: newline + 1])
                del self._buffer[: newline + 1]
                return line, False
            if newline > self.max_bytes or len(self._buffer) > self.max_bytes:
                return await self._drain_oversized(newline), True
            chunk = await self._reader.read(65536)
            if not chunk:
                line = bytes(self._buffer)
                self._buffer.clear()
                return line, False
            self._buffer.extend(chunk)

    async def _drain_oversized(self, newline: int) -> bytes:
        """Consume the oversized line through its newline; keep the rest."""
        self.oversized_lines += 1
        prefix = bytes(self._buffer[: self.max_bytes])
        while newline < 0:
            del self._buffer[:]
            chunk = await self._reader.read(65536)
            if not chunk:  # EOF mid-line: nothing left to resynchronize
                return prefix
            self._buffer.extend(chunk)
            newline = self._buffer.find(b"\n")
        del self._buffer[: newline + 1]
        return prefix


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
