"""Timers around the public entry points of each serving layer.

:func:`install_server` (and :func:`install_router` for the router)
wraps the functions and methods a request passes through
on its way from the socket to the storage backend, in the module that
looks each name up (``repro.service.server.decode_line``, not only
``repro.service.protocol.decode_line``), and records per-name call
counts, items (events) handled, inclusive time and self time into a
:class:`Ledger` held in memory.  Nothing under ``src/`` is edited.

Self time is a timer's duration minus the durations of the timed calls
nested inside it.  Nesting is tracked per asyncio task through a
context variable, so a request awaiting the broker is not charged for
what another task runs meanwhile; the broker's drain task starts from an
empty stack so the events it applies are not charged to whichever
request created it.  The ledger also keeps the union of all timed
intervals (``covered_ns``), which gives the share of wall time no timer
accounts for.

A run-less ``stats`` request, to the server or through the router,
snapshots the ledger as a *mark*; the benchmark sends one before and one
after its timed window and subtracts them.  :meth:`Ledger.dump` writes
every mark as JSON when the process exits.
"""

from __future__ import annotations

import contextvars
import functools
import json
import selectors
import time
from typing import Any, Callable, Dict, List, Optional

_now = time.perf_counter_ns

#: The innermost open timer of the current task: a one-element list
#: accumulating the durations of the timed calls nested inside it.
_FRAME: "contextvars.ContextVar[Optional[List[int]]]" = contextvars.ContextVar(
    "perfbench_frame", default=None
)


class Ledger:
    """Per-name counters of the timed calls of one process."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.items: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.covered_ns = 0
        self._active = 0
        self._covered_since = 0
        self.marks: List[Dict[str, Any]] = []

    def enter(self) -> None:
        if self._active == 0:
            self._covered_since = _now()
        self._active += 1

    def leave(self, name: str, elapsed: int, nested: int, items: int, end: int) -> None:
        parent = _FRAME.get()
        if parent is not None:
            parent[0] += elapsed
        self.calls[name] = self.calls.get(name, 0) + 1
        self.items[name] = self.items.get(name, 0) + items
        self.total_ns[name] = self.total_ns.get(name, 0) + elapsed
        self.self_ns[name] = self.self_ns.get(name, 0) + elapsed - nested
        self._active -= 1
        if self._active == 0:
            self.covered_ns += end - self._covered_since

    def mark(self) -> None:
        now = _now()
        covered = self.covered_ns
        if self._active:
            covered += now - self._covered_since
        self.marks.append(
            {
                "t_ns": now,
                "covered_ns": covered,
                "calls": dict(self.calls),
                "items": dict(self.items),
                "total_ns": dict(self.total_ns),
                "self_ns": dict(self.self_ns),
            }
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            json.dump({"marks": self.marks}, sink)


def timed(
    ledger: Ledger,
    name: str,
    fn: Callable,
    count: Optional[Callable[[tuple], int]] = None,
    consume: bool = False,
) -> Callable:
    """*fn* wrapped in a timer; *consume* drains a returned iterator inside it."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = [0]
        token = _FRAME.set(frame)
        ledger.enter()
        start = _now()
        try:
            result = fn(*args, **kwargs)
            if consume:
                result = iter(list(result))
            return result
        finally:
            end = _now()
            _FRAME.reset(token)
            ledger.leave(name, end - start, frame[0], count(args) if count else 1, end)

    return wrapper


def timed_async(
    ledger: Ledger,
    name: str,
    fn: Callable,
    count: Optional[Callable[[tuple], int]] = None,
) -> Callable:
    """The coroutine function *fn* wrapped in a timer spanning its awaits."""

    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = [0]
        token = _FRAME.set(frame)
        ledger.enter()
        start = _now()
        try:
            return await fn(*args, **kwargs)
        finally:
            end = _now()
            _FRAME.reset(token)
            ledger.leave(name, end - start, frame[0], count(args) if count else 1, end)

    return wrapper


def _patch(owner: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
    setattr(owner, attr, wrap(getattr(owner, attr)))


def _timed_selector(ledger: Ledger) -> type:
    """The default selector with its blocking ``select`` timed as ``loop.idle``."""

    class TimedSelector(selectors.DefaultSelector):  # type: ignore[misc, valid-type]
        def select(self, timeout: Optional[float] = None):  # type: ignore[override]
            ledger.enter()
            start = _now()
            try:
                return super().select(timeout)
            finally:
                end = _now()
                ledger.leave("loop.idle", end - start, 0, 1, end)

    return TimedSelector


def install_server(ledger: Ledger) -> None:
    """Wrap the service stack's layers; call before ``repro serve`` starts."""
    from repro.core.incremental import IncrementalExplainer
    from repro.dataflow.graph import DeltaGraph
    from repro.obs.provenance import ProvenanceLog
    from repro.service import registry as registry_module
    from repro.service import server as server_module
    from repro.service.broker import EventBroker
    from repro.service.registry import HostedRun, ShardedRunRegistry
    from repro.service.viewcache import CachedPeerView
    from repro.storage import backend as backend_module
    from repro.storage.segment import SegmentStore
    from repro.workflow.eventindex import ApplicableEventIndex
    from repro.workflow.queries import Query
    from repro.workflow.views import CollaborativeSchema

    def sync(name: str, **options: Any) -> Callable[[Callable], Callable]:
        return lambda fn: timed(ledger, name, fn, **options)

    def coro(name: str, **options: Any) -> Callable[[Callable], Callable]:
        return lambda fn: timed_async(ledger, name, fn, **options)

    selectors.DefaultSelector = _timed_selector(ledger)  # type: ignore[misc]

    # Protocol and serialization, where the server module looks them up.
    _patch(server_module, "decode_line", sync("protocol.decode_line"))
    _patch(server_module, "parse_request", sync("protocol.parse_request"))
    _patch(server_module, "encode_message", sync("protocol.encode_message"))
    _patch(server_module, "event_from_dict", sync("serialization.event_from_dict"))
    _patch(server_module, "instance_to_dict", sync("serialization.instance_to_dict"))

    handle = timed_async(ledger, "server.handle", server_module.WorkflowService.handle)

    async def handle_marking(self: Any, message: Any) -> Any:
        if isinstance(message, dict) and message.get("op") == "stats" and not message.get("run"):
            ledger.mark()
        return await handle(self, message)

    server_module.WorkflowService.handle = handle_marking  # type: ignore[method-assign]

    # Broker: submissions span the wait for the drain task; the drain
    # task itself starts every event from an empty timer stack.
    _patch(EventBroker, "submit", coro("broker.submit"))
    _patch(EventBroker, "submit_many", coro("broker.submit_many", count=lambda a: len(a[2])))
    drain = EventBroker._drain

    async def drain_unnested(self: Any, run_id: str, mailbox: Any) -> None:
        _FRAME.set(None)
        await drain(self, run_id, mailbox)

    EventBroker._drain = drain_unnested  # type: ignore[method-assign]

    # Registry and engine (the engine functions as the registry imports them).
    _patch(ShardedRunRegistry, "get", coro("registry.get"))
    _patch(HostedRun, "apply", sync("registry.apply"))
    _patch(HostedRun, "apply_batch", sync("registry.apply_batch", count=lambda a: len(a[1])))
    _patch(registry_module, "apply_event_with_delta", sync("engine.apply_event_with_delta"))
    _patch(registry_module, "apply_events", sync("engine.apply_events", count=lambda a: len(a[2])))
    _patch(CollaborativeSchema, "view_instance", sync("views.view_instance"))
    _patch(Query, "satisfied_by", sync("query.satisfied_by"))

    # Dataflow: the push, and each subscriber under its subscription name.
    _patch(DeltaGraph, "push", sync("dataflow.push"))
    subscribe = DeltaGraph.subscribe

    def subscribe_timed(self: Any, subscriber: Callable, name: Optional[str] = None) -> str:
        label = f"dataflow.sub.{name or 'anonymous'}"
        return subscribe(self, timed(ledger, label, subscriber), name)

    DeltaGraph.subscribe = subscribe_timed  # type: ignore[method-assign]

    # Read-side layers.
    _patch(CachedPeerView, "instance", sync("viewcache.read"))
    _patch(ApplicableEventIndex, "advance", sync("eventindex.advance"))
    _patch(
        ApplicableEventIndex,
        "advance_many",
        sync("eventindex.advance_many", count=lambda a: len(a[1])),
    )
    _patch(ApplicableEventIndex, "events", sync("eventindex.events", consume=True))
    _patch(IncrementalExplainer, "extend", sync("explainer.extend"))
    _patch(IncrementalExplainer, "minimal_scenario", sync("explainer.minimal_scenario"))
    _patch(ProvenanceLog, "citations", sync("provenance.citations"))
    _patch(ProvenanceLog, "events_visible_to", sync("provenance.events_visible_to"))

    # Storage.
    _patch(backend_module.RecordJournal, "record_event", sync("storage.record_event"))
    _patch(backend_module.RecordJournal, "snapshot", sync("storage.snapshot"))
    _patch(backend_module._MemoryStore, "compact", sync("storage.compact"))
    _patch(SegmentStore, "compact", sync("storage.compact"))


def install_router(ledger: Ledger) -> None:
    """Wrap the router's request entry point; call before it starts."""
    from repro.cluster.router import ClusterRouter

    selectors.DefaultSelector = _timed_selector(ledger)  # type: ignore[misc]
    handle_line = timed_async(ledger, "router.handle_line", ClusterRouter.handle_line)

    async def handle_marking(self: Any, line: bytes) -> bytes:
        if b'"op":"stats"' in line and b'"run":' not in line:
            ledger.mark()
        return await handle_line(self, line)

    ClusterRouter.handle_line = handle_marking  # type: ignore[method-assign]
