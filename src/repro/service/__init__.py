"""The multi-run workflow service (serving layer over the formal substrate).

The paper's model is inherently multi-peer: peers interact only through
views ``R@p`` of a shared instance (Section 2).  This subpackage hosts
*many* such shared instances — one per run — behind an asyncio service,
making the hot path (event → view refresh → explanation) proportional
to the event's delta rather than to the instance:

* :mod:`repro.service.registry` — the run-id → hosted-run map; every
  hosted run is journal-durable and recoverable
  (:mod:`repro.runtime.journal`);
* :mod:`repro.service.broker` — per-run FIFO mailboxes with bounded
  queues, backpressure and budget-aware admission, plus the
  supervisor's retry/quarantine/crash-recovery semantics inline in the
  serving path;
* :mod:`repro.service.viewcache` — the read handle for a peer's view,
  which the run's :class:`~repro.dataflow.graph.DeltaGraph`
  materializes once and patches from each transition's
  :class:`~repro.dataflow.delta.Delta`;
* :mod:`repro.service.protocol` / :mod:`repro.service.server` — the
  JSON-lines TCP protocol (open / submit / view / explain / stats) and
  its asyncio front end;
* :mod:`repro.service.loadgen` — the load-generation and verification
  client (``repro loadgen``).
"""

from __future__ import annotations

from .broker import EventBroker, SubmitOutcome
from .errors import (
    AdmissionError,
    DuplicateRunError,
    ProtocolError,
    ServiceError,
    UnknownRunError,
)
from .loadgen import ClientStats, LoadReport, RunOutcome, ServiceClient, run_loadgen
from .registry import HostedRun, ShardedRunRegistry
from .server import ServiceServer, WorkflowService
from .viewcache import CachedPeerView

__all__ = [
    "AdmissionError",
    "CachedPeerView",
    "DuplicateRunError",
    "EventBroker",
    "HostedRun",
    "ClientStats",
    "LoadReport",
    "ProtocolError",
    "RunOutcome",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ShardedRunRegistry",
    "SubmitOutcome",
    "UnknownRunError",
    "WorkflowService",
    "run_loadgen",
]
