"""The multi-run workflow service and its TCP front end.

:class:`WorkflowService` composes the run registry and the event
broker behind one ``handle(request) -> response`` method speaking the
JSON-lines protocol of :mod:`repro.service.protocol`;
:class:`ServiceServer` exposes it over an :mod:`asyncio` TCP socket,
one protocol line per request.

Requests on one connection are handled strictly in order, so a client's
submissions to a run are FIFO end to end: connection order = broker
order = application order.  Concurrency across runs comes from
concurrent connections (and from the broker's per-run workers, which
let one run back off on a transient fault while others keep applying).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, Optional

from ..obs.metrics import METRICS
from ..obs.shapley import EXACT_HARD_LIMIT, shapley_rank
from ..runtime.budget import Budget, BudgetExceeded, use_budget
from ..runtime.faults import DiskFaultInjector, DiskFaultPlan, FaultPlan
from ..runtime.supervisor import RetryPolicy
from ..storage.backend import DurabilityPolicy, StorageBackend, open_backend
from ..workflow.errors import WorkflowError
from ..workflow.evalstats import EVAL_STATS
from ..workflow.instance import Instance
from ..workflow.program import WorkflowProgram
from ..workflow.serialization import (
    event_from_dict,
    event_to_dict,
    instance_from_dict,
    instance_to_dict,
    value_from_json,
)
from .broker import EventBroker
from .errors import ProtocolError, ServiceError, UnknownRunError, error_code
from .protocol import (
    MAX_LINE_BYTES,
    LineReader,
    decode_line,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)
from .registry import ShardedRunRegistry

__all__ = ["MAX_RANK_STEPS", "ServiceServer", "WorkflowService"]

#: ``provenance_rank`` replays event coalitions on the event loop (about
#: samples × events² engine applications), so it runs under a budget of
#: this many steps — engine applications plus sampled permutations —
#: and is refused when it would exceed it.
MAX_RANK_STEPS = 1 << 16

_REQUESTS = METRICS.counter(
    "repro_service_requests_total",
    "Protocol requests handled, by op and outcome",
    labelnames=("op", "outcome"),
)


class WorkflowService:
    """Request dispatch over one workflow program's hosted runs."""

    def __init__(
        self,
        program: WorkflowProgram,
        queue_capacity: int = 64,
        snapshot_every: Optional[int] = 10,
        retry: Optional[RetryPolicy] = None,
        budget: Optional[Budget] = None,
        fault_plan: Optional[FaultPlan] = None,
        storage: "str | StorageBackend | None" = None,
        durability: "str | DurabilityPolicy | None" = None,
        max_resident: Optional[int] = None,
        disk_fault_plan: Optional[DiskFaultPlan] = None,
        compact_every: int = 4,
        replicate_to: Optional[str] = None,
        batch_size: int = 1,
    ) -> None:
        self.program = program
        self.disk_fault_injector = (
            DiskFaultInjector(disk_fault_plan)
            if disk_fault_plan is not None and disk_fault_plan.any_rate
            else None
        )
        if isinstance(storage, str):
            storage = open_backend(
                storage,
                durability=durability,
                fault_injector=self.disk_fault_injector,
            )
        self.replication = None
        self._replica_stores: Dict[str, Any] = {}
        if replicate_to is not None:
            # Primary half of the cluster replication contract: every
            # record this service appends locally is also shipped,
            # FIFO, to the follower at *replicate_to* (docs/CLUSTER.md).
            from ..cluster.replicate import ReplicatingBackend, ReplicationShipper

            if storage is None:
                raise ServiceError(
                    "replication needs a storage backend "
                    "(pass storage=, e.g. 'segment:DIR')"
                )
            self.replication = ReplicationShipper(replicate_to)
            storage = ReplicatingBackend(storage, self.replication)
        self.registry = ShardedRunRegistry(
            program,
            snapshot_every=snapshot_every,
            storage=storage,
            max_resident=max_resident,
            compact_every=compact_every,
        )
        self.broker = EventBroker(
            self.registry,
            queue_capacity=queue_capacity,
            retry=retry if retry is not None else RetryPolicy(initial_backoff=0.001),
            budget=budget,
            fault_plan=fault_plan,
            batch_size=batch_size,
        )
        self.shutdown_requested = asyncio.Event()
        self.started_at = time.monotonic()
        self.requests = 0

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one protocol request; never raises (errors become responses)."""
        request_id = message.get("id") if isinstance(message, dict) else None
        self.requests += 1
        op = "invalid"
        try:
            op, request = parse_request(message)
            handler = getattr(self, f"_op_{op}")
            response = await handler(request, request_id)
            _REQUESTS.labels(op=op, outcome="ok").inc()
            return response
        except WorkflowError as exc:
            code = error_code(exc)
            _REQUESTS.labels(op=op, outcome=code).inc()
            return error_response(request_id, code, str(exc))

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    async def _op_ping(self, request: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
        return ok_response(request_id, pong=True)

    async def _op_open(self, request: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
        initial: Optional[Instance] = None
        if request.get("initial"):
            initial = instance_from_dict(self.program, request["initial"])
        # A follower promoted to primary starts *hosting* runs it so far
        # only replicated: hand the replica store handle back to the
        # backend before the registry opens its own over the records.
        replica = self._replica_stores.pop(request["run"], None)
        if replica is not None:
            try:
                replica.sync()
            except Exception:  # a failing-fsync replica: recovery re-reads
                pass
            replica.close()
        hosted, recovered = await self.registry.open(
            request["run"], initial=initial, recover=bool(request.get("recover", True))
        )
        return ok_response(
            request_id,
            run=hosted.run_id,
            recovered=recovered,
            applied=hosted.applied,
        )

    async def _op_submit(self, request: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
        event = event_from_dict(self.program, request["event"])
        outcome = await self.broker.submit(
            request["run"], event, expected_seq=request.get("seq")
        )
        version = outcome.version
        if version is None:  # not applied now: report the current version
            hosted = await self.registry.get(request["run"])
            version = hosted.view_version(event.peer)
        response = ok_response(
            request_id,
            run=outcome.run_id,
            status=outcome.status,
            seq=outcome.seq,
            attempts=outcome.attempts,
            recovered=outcome.recovered,
            version=version,
        )
        if outcome.deduped:
            response["deduped"] = True
        if outcome.reason:
            response["reason"] = outcome.reason
        return response

    async def _op_submit_batch(
        self, request: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        run_id = request["run"]
        entries = [
            (event_from_dict(self.program, entry["event"]), entry.get("seq"))
            for entry in request["events"]
        ]
        outcomes = await self.broker.submit_many(run_id, entries)
        hosted = await self.registry.get(run_id)
        results = []
        for (event, _), outcome in zip(entries, outcomes):
            result: Dict[str, Any] = {
                "status": outcome.status,
                "seq": outcome.seq,
                "attempts": outcome.attempts,
                "recovered": outcome.recovered,
                "version": (
                    outcome.version
                    if outcome.version is not None
                    else hosted.view_version(event.peer)
                ),
            }
            if outcome.deduped:
                result["deduped"] = True
            if outcome.reason:
                result["reason"] = outcome.reason
            results.append(result)
        return ok_response(
            request_id, run=run_id, applied=hosted.applied, results=results
        )

    async def _op_view(self, request: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
        peer = request["peer"]
        if peer not in self.program.schema.peers:
            raise ServiceError(f"unknown peer {peer!r}")
        hosted = await self.registry.get(request["run"])
        return ok_response(
            request_id,
            run=hosted.run_id,
            peer=peer,
            version=hosted.view_version(peer),
            applied=hosted.applied,
            instance=instance_to_dict(hosted.view_instance(peer)),
            cached=True,
        )

    async def _op_explain(self, request: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
        peer = request["peer"]
        if peer not in self.program.schema.peers:
            raise ServiceError(f"unknown peer {peer!r}")
        hosted = await self.registry.get(request["run"])
        explainer = hosted.explainer(peer)
        if "index" in request:
            index = request["index"]
            if not 0 <= index < hosted.applied:
                raise ServiceError(
                    f"event index {index} out of range (run has {hosted.applied})"
                )
            scenario = sorted(explainer.explanation_of(index))
        else:
            scenario = list(explainer.minimal_scenario())
        return ok_response(
            request_id,
            run=hosted.run_id,
            peer=peer,
            applied=hosted.applied,
            scenario=scenario,
            rules=[hosted.events[i].rule.name for i in scenario],
            provenance=hosted.provenance_log().citations(scenario),
        )

    async def _op_applicable(self, request: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
        peer = request.get("peer")
        if peer is not None and peer not in self.program.schema.peers:
            raise ServiceError(f"unknown peer {peer!r}")
        hosted = await self.registry.get(request["run"])
        events = hosted.applicable(peer)
        return ok_response(
            request_id,
            run=hosted.run_id,
            applied=hosted.applied,
            count=len(events),
            events=[event_to_dict(event) for event in events],
        )

    async def _op_stats(self, request: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
        if request.get("run"):
            hosted = await self.registry.get(request["run"])
            return ok_response(request_id, run_stats=hosted.stats())
        response = ok_response(
            request_id,
            uptime_seconds=round(time.monotonic() - self.started_at, 3),
            requests=self.requests,
            registry=self.registry.stats(),
            broker=self.broker.stats(),
            queries=EVAL_STATS.snapshot(),
        )
        if self.replication is not None:
            response["replication"] = self.replication.stats()
        return response

    async def _op_metrics(self, request: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
        return ok_response(
            request_id,
            text=METRICS.render_prometheus(),
            snapshot=METRICS.snapshot(),
        )

    async def _op_provenance(self, request: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
        hosted = await self.registry.get(request["run"])
        log = hosted.provenance_log()
        response: Dict[str, Any] = {"run": hosted.run_id, "applied": hosted.applied}
        if request.get("relation"):
            key = request.get("key")
            seqs = log.events_touching(
                request["relation"], None if key is None else value_from_json(key)
            )
            response["seqs"] = list(seqs)
            response["records"] = log.citations(seqs)
        elif request.get("peer"):
            peer = request["peer"]
            if peer not in self.program.schema.peers:
                raise ServiceError(f"unknown peer {peer!r}")
            seqs = log.events_visible_to(peer)
            response["seqs"] = list(seqs)
            response["records"] = log.citations(seqs)
        else:
            response["records"] = log.to_dicts()
        return ok_response(request_id, **response)

    async def _op_provenance_rank(
        self, request: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        """Shapley-ranked event attributions for a peer-visible target.

        Ranking replays event coalitions through the engine on the
        event loop, so it runs under a :data:`MAX_RANK_STEPS` budget and
        is refused when it would exceed it, rather than stalling every
        other run and client.
        """
        peer = request["peer"]
        if peer not in self.program.schema.peers:
            raise ServiceError(f"unknown peer {peer!r}")
        relation = request.get("relation")
        if relation is not None and self.program.schema.view(relation, peer) is None:
            raise ServiceError(f"peer {peer!r} has no view of relation {relation!r}")
        key = request.get("key")
        if key is not None:
            key = value_from_json(key)
        method = request.get("method", "auto")
        hosted = await self.registry.get(request["run"])
        if method == "exact" and hosted.applied > EXACT_HARD_LIMIT:
            raise ServiceError(
                f"run has {hosted.applied} events; exact ranking is capped at "
                f"{EXACT_HARD_LIMIT} (use method 'sampled')"
            )
        from ..workflow.runs import execute

        try:
            with use_budget(Budget(max_steps=MAX_RANK_STEPS)):
                run = execute(
                    self.program, hosted.events, hosted.initial, check_freshness=False
                )
                report = shapley_rank(
                    run,
                    peer,
                    relation=relation,
                    key=key,
                    method=method,
                    samples=request.get("samples", 128),
                    seed=request.get("seed", 0),
                )
        except BudgetExceeded:
            raise ServiceError(
                f"provenance_rank is capped at {MAX_RANK_STEPS} steps "
                "(rank a shorter run, or with fewer samples)"
            ) from None
        citations = {
            record["seq"]: record
            for record in hosted.provenance_log().citations(
                [entry.position for entry in report.attributions]
            )
        }
        payload = report.to_dict()
        payload["ranking"] = [
            {**entry, "provenance": citations.get(entry["position"])}
            for entry in payload["ranking"]
        ]
        return ok_response(
            request_id, run=hosted.run_id, applied=hosted.applied, **payload
        )

    async def _op_replicate(self, request: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
        """Follower half of journal replication: append shipped records.

        Records land in this server's *storage backend* (not its
        registry — replicated runs are not hosted here), so a promoted
        follower recovers a dead primary's runs from its own store via
        the ordinary ``open``-with-recovery path.  Replica appends go
        to the unwrapped backend: replicated records are the other
        shard's history and must not be re-shipped to *our* follower.
        """
        run_id = request["run"]
        backend = self.registry.storage
        backend = getattr(backend, "inner", backend)
        store = self._replica_stores.get(run_id)
        if request.get("count"):
            if store is not None:
                count = store.record_count()
            elif backend.exists(run_id):
                count = len(backend.read_records(run_id)[0])
            else:
                count = 0
            return ok_response(request_id, run=run_id, records=count)
        if store is None:
            store = backend.store(run_id)
            self._replica_stores[run_id] = store
        records = request["records"]
        for record in records:
            if not isinstance(record, dict):
                raise ProtocolError("replicated records must be JSON objects")
            store.append(record)
        return ok_response(request_id, run=run_id, appended=len(records))

    async def _op_close(self, request: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
        run_id = request["run"]
        await self.broker.quiesce(run_id)
        await self.broker.release(run_id)
        hosted = await self.registry.close(run_id)
        return ok_response(request_id, run=run_id, applied=hosted.applied)

    async def _op_shutdown(self, request: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
        """Drain, persist, *then* acknowledge.

        The response is the durability barrier the cluster supervisor
        relies on for graceful restarts: every mailbox is drained (all
        enqueued events applied or resolved), every hosted run's
        records are synced through the storage backend, and the
        replication shipper (when present) has delivered its backlog —
        so a shard restarted the moment this response arrives can never
        race an acknowledged-but-unapplied event.
        """
        await self.broker.quiesce()
        synced = await self.registry.sync_all()
        if self.replication is not None:
            await self.replication.drain()
        self.shutdown_requested.set()
        return ok_response(
            request_id, shutting_down=True, drained=True, synced_runs=synced
        )

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    async def aclose(self) -> None:
        """Drain mailboxes and seal every hosted run's journal.

        Unclosed runs are sealed with status ``suspended``: their
        journals remain recoverable, and re-opening the same run id
        against the same journal directory resumes them.
        """
        await self.broker.quiesce()
        await self.broker.shutdown()
        for run_id in self.registry.run_ids():
            try:
                await self.registry.close(run_id, status="suspended")
            except UnknownRunError:  # pragma: no cover - racing close
                pass
        for store in self._replica_stores.values():
            try:
                store.sync()
            except Exception:  # a failing-fsync replica store: best effort
                pass
            store.close()
        self._replica_stores.clear()
        if self.replication is not None:
            await self.replication.aclose()


class ServiceServer:
    """The asyncio TCP front end: one JSON line in, one JSON line out."""

    def __init__(
        self,
        service: WorkflowService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_line_bytes: int = MAX_LINE_BYTES,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.max_line_bytes = max_line_bytes
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        lines = LineReader(reader, self.max_line_bytes)
        try:
            while True:
                line, oversized = await lines.readline()
                if not line and not oversized:
                    break
                if oversized:
                    # The line was drained through its newline, so the
                    # connection stays framed: reply with a structured
                    # envelope instead of hanging up on the client.
                    response = error_response(
                        None,
                        "protocol",
                        f"request line exceeds {self.max_line_bytes} bytes "
                        "and was discarded",
                    )
                else:
                    try:
                        message = decode_line(line)
                    except ProtocolError as exc:
                        response = error_response(None, "protocol", str(exc))
                    else:
                        response = await self.service.handle(message)
                writer.write(encode_message(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except asyncio.CancelledError:  # server closing under our feet
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except BaseException:  # teardown best effort (incl. cancellation)
                pass

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request arrives, then tear down cleanly."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self.service.shutdown_requested.wait()
        await self.service.aclose()

    async def stop(self) -> None:
        self.service.shutdown_requested.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.service.aclose()
