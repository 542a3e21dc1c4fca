"""Observability: structured tracing, a metrics registry, and provenance.

Three zero-dependency modules (they import nothing from the rest of the
package, so every layer can report into them without cycles):

* :mod:`repro.obs.trace` — nestable spans with monotonic timings and
  pluggable sinks (no-op default, ring buffer, JSON lines), wired
  through the engine, the scenario and state-space searches, view
  synthesis, the supervisor, and the service;
* :mod:`repro.obs.metrics` — process-wide counters / gauges / fixed
  bucket histograms with Prometheus text rendering, exposed by the
  service's ``metrics`` protocol op and the CLI ``--metrics`` dump;
* :mod:`repro.obs.provenance` — per-run records of which events touched
  which tuples and peer views, cited by the ``explain`` paths.

A fourth module, :mod:`repro.obs.shapley`, ranks provenance events by
Shapley-value importance toward a visible fact.  Unlike the three above
it *does* sit atop the engine (it replays event coalitions), so this
package does not import it: engine modules can keep importing
``repro.obs.metrics``/``trace`` without pulling the engine back in
through a cycle, and ``repro.workflow`` must never import it.  Import
its names from :mod:`repro.obs.shapley` (or :mod:`repro.api`).

See ``docs/OBSERVABILITY.md`` for the operator's guide and benchmark
E16 for the overhead budget (<5% with tracing disabled).
"""

from .metrics import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from .provenance import ProvenanceLog, ProvenanceRecord
from .trace import (
    JsonLinesSink,
    NullSink,
    RingBufferSink,
    SpanRecord,
    TraceSink,
    capture_spans,
    configure_tracing,
    current_span_id,
    span,
    tracing_enabled,
)

__all__ = [
    "METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLinesSink",
    "MetricFamily",
    "MetricsRegistry",
    "NullSink",
    "ProvenanceLog",
    "ProvenanceRecord",
    "RingBufferSink",
    "SpanRecord",
    "TraceSink",
    "capture_spans",
    "configure_tracing",
    "current_span_id",
    "span",
    "tracing_enabled",
]
