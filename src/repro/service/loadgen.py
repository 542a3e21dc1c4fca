"""Load generator and verification client for the workflow service.

Drives synthetic traffic from :mod:`repro.workloads.generators` against
a live server: one connection per concurrent run, events pre-generated
client-side with :class:`~repro.workflow.enumerate.RunGenerator` and
submitted in order.  Beyond throughput/latency numbers the harness is a
*checker* — it independently replays the events the server reported as
applied and verifies:

* **ordering** — the server's ``seq`` for a run's applied events is
  exactly 0, 1, 2, … in submission order (per-run FIFO survived
  concurrency, backpressure, retries and crash recovery);
* **consistency** — every peer's served view instance equals the view
  of the client-side replay, tuple for tuple (the materialized caches
  never drift from ``I@p``, even across injected faults).

Any mismatch counts as a violation in the :class:`LoadReport`; the CI
smoke job asserts both counters are zero under fault injection.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple as PyTuple,
)

from ..workflow.enumerate import RunGenerator
from ..workflow.events import Event
from ..workflow.program import WorkflowProgram
from ..workflow.runs import execute
from ..workflow.serialization import event_to_dict, instance_to_dict
from .errors import ERROR_CODES, ServiceError
from .protocol import PROTOCOL_VERSION, LineConnection, decode_line, encode_message

__all__ = [
    "ClientStats",
    "LoadReport",
    "RunOutcome",
    "ServiceClient",
    "run_loadgen",
]


class ServiceClient:
    """A minimal JSON-lines client for one connection to the service."""

    def __init__(self, connection: LineConnection) -> None:
        self._connection = connection

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        return cls(await LineConnection.connect(host, port))

    async def request(self, **message: Any) -> Dict[str, Any]:
        """Send one request and await its response line.

        A reply over the connection's cap (``MAX_REPLY_BYTES``, far
        above a ``metrics`` answer) raises ``ProtocolError``.  The
        client is also a protocol checker: a failure response whose
        ``error`` is not in the shared :data:`ERROR_CODES` registry, or
        a response claiming a newer protocol than this client speaks,
        is itself a violation and raises.
        """
        try:
            line = await self._connection.roundtrip(encode_message(message))
        except ConnectionError as exc:
            raise ServiceError("server closed the connection mid-request") from exc
        response = decode_line(line)
        claimed = response.get("protocol")
        if isinstance(claimed, int) and claimed > PROTOCOL_VERSION:
            raise ServiceError(
                f"server speaks protocol {claimed}, client only {PROTOCOL_VERSION}"
            )
        if not response.get("ok") and response.get("error") not in ERROR_CODES:
            raise ServiceError(
                f"failure response carries unregistered error code "
                f"{response.get('error')!r} (known: {', '.join(sorted(ERROR_CODES))})"
            )
        return response

    async def expect_ok(self, **message: Any) -> Dict[str, Any]:
        response = await self.request(**message)
        if not response.get("ok"):
            raise ServiceError(
                f"request {message.get('op')!r} failed: "
                f"{response.get('error')}: {response.get('message')}"
            )
        return response

    async def close(self) -> None:
        self._connection.close()


def _canonical_view(data: Dict[str, Any]) -> Dict[str, frozenset]:
    """An order-insensitive form of an instance_to_dict payload."""
    return {
        relation: frozenset(
            frozenset((attr, repr(value)) for attr, value in row.items())
            for row in rows
        )
        for relation, rows in data.items()
        if rows
    }


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


@dataclass
class RunOutcome:
    """What happened to one driven run."""

    run_id: str
    submitted: int = 0
    applied: int = 0
    quarantined: int = 0
    rejected: int = 0
    recoveries: int = 0
    deduped: int = 0
    ordering_violations: int = 0
    consistency_violations: int = 0
    latencies: List[float] = field(default_factory=list)
    #: The events the server acknowledged as applied, in ack order —
    #: the client-side ground truth the cluster post-mortem audit
    #: compares every shard store against.
    applied_events: List[Event] = field(default_factory=list)


@dataclass
class ClientStats:
    """Per-connection throughput when driving with ``clients=N``."""

    client: int
    runs: int
    applied: int
    wall_seconds: float

    @property
    def events_per_second(self) -> float:
        return (self.applied / self.wall_seconds) if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "client": self.client,
            "runs": self.runs,
            "applied": self.applied,
            "wall_seconds": round(self.wall_seconds, 4),
            "events_per_second": round(self.events_per_second, 1),
        }


@dataclass
class LoadReport:
    """Aggregate results of one load-generation session."""

    runs: int
    wall_seconds: float
    submitted: int
    applied: int
    quarantined: int
    rejected: int
    recoveries: int
    ordering_violations: int
    consistency_violations: int
    events_per_second: float
    p50_ms: float
    p99_ms: float
    verified_views: int
    deduped: int = 0
    #: How many client connections drove the traffic (1 = the legacy
    #: connection-per-run mode) and how many events each submit request
    #: carried (1 = plain ``submit``, >1 = ``submit_batch`` chunks).
    clients: int = 1
    batch_size: int = 1
    client_stats: List[ClientStats] = field(default_factory=list)
    #: Per-run detail (not serialized); the cluster harness reads the
    #: acked event lists off these for its storage audit.
    outcomes: List[RunOutcome] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no ordering or consistency violation was observed."""
        return self.ordering_violations == 0 and self.consistency_violations == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "runs": self.runs,
            "wall_seconds": round(self.wall_seconds, 4),
            "submitted": self.submitted,
            "applied": self.applied,
            "quarantined": self.quarantined,
            "rejected": self.rejected,
            "recoveries": self.recoveries,
            "deduped": self.deduped,
            "ordering_violations": self.ordering_violations,
            "consistency_violations": self.consistency_violations,
            "events_per_second": round(self.events_per_second, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "verified_views": self.verified_views,
            "clients": self.clients,
            "batch_size": self.batch_size,
            "per_client": [stats.to_dict() for stats in self.client_stats],
            "clean": self.clean,
        }


async def _expect_ok_retrying(
    client: ServiceClient,
    retry_unavailable: bool,
    retry_seconds: float = 15.0,
    **message: Any,
) -> Dict[str, Any]:
    """``expect_ok``, but ``unavailable`` is retried when safe.

    The cluster router answers ``unavailable`` when the owning shard is
    down longer than its own retry budget; in idempotent mode every
    request here is safe to resend (reads, opens, and ``seq``-keyed
    submits), so the client keeps trying until the failover lands.
    """
    deadline = time.perf_counter() + retry_seconds
    backoff = 0.05
    while True:
        response = await client.request(**message)
        if response.get("ok"):
            return response
        if (
            retry_unavailable
            and response.get("error") == "unavailable"
            and time.perf_counter() < deadline
        ):
            await asyncio.sleep(backoff)
            backoff = min(backoff * 2, 0.5)
            continue
        raise ServiceError(
            f"request {message.get('op')!r} failed: "
            f"{response.get('error')}: {response.get('message')}"
        )


async def _drive_run(
    program: WorkflowProgram,
    host: str,
    port: int,
    run_id: str,
    events: Sequence[Event],
    verify: bool,
    view_every: int,
    close_run: bool,
    idempotent: bool = False,
    progress: Optional[Callable[[], None]] = None,
    batch_size: int = 1,
    client: Optional[ServiceClient] = None,
) -> RunOutcome:
    outcome = RunOutcome(run_id)
    owned = client is None
    if client is None:
        client = await ServiceClient.connect(host, port)
    expected_seq = 0

    def _account(event: Event, result: Dict[str, Any]) -> str:
        """Fold one per-event outcome into the run tally; returns status."""
        nonlocal expected_seq
        outcome.submitted += 1
        if result.get("recovered"):
            outcome.recoveries += 1
        if result.get("deduped"):
            outcome.deduped += 1
        status = result.get("status")
        if status == "applied":
            if result.get("seq") != expected_seq:
                outcome.ordering_violations += 1
            expected_seq += 1
            outcome.applied += 1
            outcome.applied_events.append(event)
            if progress is not None:
                progress()
        elif status == "quarantined":
            outcome.quarantined += 1
        else:
            outcome.rejected += 1
        return status or "rejected"

    async def _submit_one(event: Event) -> str:
        submit: Dict[str, Any] = {
            "op": "submit",
            "run": run_id,
            "event": event_to_dict(event),
        }
        if idempotent:
            # The seq idempotency key makes router retries (and our
            # own unavailable retries) exactly-once across failover.
            submit["seq"] = expected_seq
        start = time.perf_counter()
        response = await _expect_ok_retrying(client, idempotent, **submit)
        outcome.latencies.append(time.perf_counter() - start)
        return _account(event, response)

    async def _submit_chunk(chunk: Sequence[Event]) -> None:
        entries: List[Dict[str, Any]] = []
        for offset, event in enumerate(chunk):
            entry: Dict[str, Any] = {"event": event_to_dict(event)}
            if idempotent:
                entry["seq"] = expected_seq + offset
            entries.append(entry)
        start = time.perf_counter()
        response = await _expect_ok_retrying(
            client, idempotent, op="submit_batch", run=run_id, events=entries
        )
        outcome.latencies.append(time.perf_counter() - start)
        results = response.get("results", [])
        retry: List[Event] = []
        for event, result in zip(chunk, results):
            # A non-applied entry shifts every later precomputed seq
            # key by one, so later entries of the chunk can bounce as
            # gaps.  With idempotency keys it is safe to resubmit a
            # rejected entry one at a time (an entry that actually
            # landed is deduped, not double-applied), which restores
            # exactly the single-submit per-event semantics; the
            # resubmission supplies the authoritative tally.
            if idempotent and result.get("status") not in (
                "applied",
                "quarantined",
            ):
                retry.append(event)
                continue
            _account(event, result)
        for event in retry:
            await _submit_one(event)

    try:
        await _expect_ok_retrying(client, idempotent, op="open", run=run_id)
        position = 0
        step = max(1, batch_size)
        while position < len(events):
            chunk = events[position : position + step]
            if len(chunk) == 1:
                await _submit_one(chunk[0])
            else:
                await _submit_chunk(chunk)
            position += len(chunk)
            if view_every and (position % view_every) < len(chunk):
                await _expect_ok_retrying(
                    client,
                    idempotent,
                    op="view",
                    run=run_id,
                    peer=program.schema.peers[-1],
                )
        if verify:
            replayed = execute(
                program, outcome.applied_events, check_freshness=False
            )
            for peer in program.schema.peers:
                response = await _expect_ok_retrying(
                    client, idempotent, op="view", run=run_id, peer=peer
                )
                expected = instance_to_dict(
                    program.schema.view_instance(replayed.final_instance, peer)
                )
                if _canonical_view(response.get("instance", {})) != _canonical_view(
                    expected
                ):
                    outcome.consistency_violations += 1
        if close_run:
            await _expect_ok_retrying(client, idempotent, op="close", run=run_id)
    finally:
        if owned:
            await client.close()
    return outcome


async def run_loadgen(
    program: WorkflowProgram,
    host: str,
    port: int,
    runs: int = 8,
    events_per_run: int = 20,
    seed: int = 0,
    verify: bool = True,
    view_every: int = 0,
    close_runs: bool = True,
    run_prefix: str = "load",
    max_concurrency: Optional[int] = None,
    shutdown: bool = False,
    idempotent: bool = False,
    progress: Optional[Callable[[], None]] = None,
    clients: int = 1,
    batch_size: int = 1,
) -> LoadReport:
    """Drive *runs* concurrent runs against a live server and report.

    Each run gets its own connection and its own pre-generated event
    sequence (seeded per run, so distinct runs exercise distinct
    trajectories).  ``view_every`` adds a read-your-writes view fetch
    every N events; ``shutdown`` sends a shutdown request at the end.

    With ``clients=N`` (N > 1) the harness instead opens exactly N
    connections and partitions the runs round-robin across them; each
    client drives its runs sequentially over its one connection, and
    the report carries per-client throughput in ``client_stats``.
    With ``batch_size=B`` (B > 1) events are submitted in chunks of B
    through the ``submit_batch`` op instead of one ``submit`` per
    event; per-event acks and checks are unchanged.
    """
    if clients < 1:
        raise ValueError("clients must be at least 1")
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    generated: List[PyTuple[str, List[Event]]] = []
    for index in range(runs):
        generator = RunGenerator(program, seed=seed * 10007 + index)
        generated.append(
            (
                f"{run_prefix}-{seed}-{index}",
                list(generator.random_run(events_per_run).events),
            )
        )

    client_stats: List[ClientStats] = []
    started = time.perf_counter()
    if clients == 1:
        semaphore = asyncio.Semaphore(max_concurrency or runs)

        async def bounded(run_id: str, events: List[Event]) -> RunOutcome:
            async with semaphore:
                return await _drive_run(
                    program,
                    host,
                    port,
                    run_id,
                    events,
                    verify,
                    view_every,
                    close_runs,
                    idempotent=idempotent,
                    progress=progress,
                    batch_size=batch_size,
                )

        outcomes = list(
            await asyncio.gather(
                *(bounded(run_id, events) for run_id, events in generated)
            )
        )
    else:
        buckets: List[List[PyTuple[str, List[Event]]]] = [
            generated[index::clients] for index in range(clients)
        ]

        async def drive_client(
            index: int, bucket: List[PyTuple[str, List[Event]]]
        ) -> PyTuple[ClientStats, List[RunOutcome]]:
            connection = await ServiceClient.connect(host, port)
            begun = time.perf_counter()
            driven: List[RunOutcome] = []
            try:
                for run_id, events in bucket:
                    driven.append(
                        await _drive_run(
                            program,
                            host,
                            port,
                            run_id,
                            events,
                            verify,
                            view_every,
                            close_runs,
                            idempotent=idempotent,
                            progress=progress,
                            batch_size=batch_size,
                            client=connection,
                        )
                    )
            finally:
                await connection.close()
            elapsed = time.perf_counter() - begun
            stats = ClientStats(
                client=index,
                runs=len(bucket),
                applied=sum(o.applied for o in driven),
                wall_seconds=elapsed,
            )
            return stats, driven

        driven_pairs = await asyncio.gather(
            *(
                drive_client(index, bucket)
                for index, bucket in enumerate(buckets)
                if bucket
            )
        )
        outcomes = [outcome for _, driven in driven_pairs for outcome in driven]
        client_stats = [stats for stats, _ in driven_pairs]
    wall = time.perf_counter() - started
    if shutdown:
        client = await ServiceClient.connect(host, port)
        try:
            await client.expect_ok(op="shutdown")
        finally:
            await client.close()
    latencies = sorted(
        latency for outcome in outcomes for latency in outcome.latencies
    )
    applied = sum(o.applied for o in outcomes)
    return LoadReport(
        runs=runs,
        wall_seconds=wall,
        submitted=sum(o.submitted for o in outcomes),
        applied=applied,
        quarantined=sum(o.quarantined for o in outcomes),
        rejected=sum(o.rejected for o in outcomes),
        recoveries=sum(o.recoveries for o in outcomes),
        ordering_violations=sum(o.ordering_violations for o in outcomes),
        consistency_violations=sum(o.consistency_violations for o in outcomes),
        events_per_second=(applied / wall) if wall > 0 else 0.0,
        p50_ms=_percentile(latencies, 0.50) * 1000.0,
        p99_ms=_percentile(latencies, 0.99) * 1000.0,
        verified_views=(len(program.schema.peers) * runs) if verify else 0,
        deduped=sum(o.deduped for o in outcomes),
        clients=clients,
        batch_size=batch_size,
        client_stats=client_stats,
        outcomes=list(outcomes),
    )
