"""Process-wide metrics registry: counters, gauges, histograms, Prometheus.

One :class:`MetricsRegistry` (the module-level :data:`METRICS`) holds
every metric family the system produces — engine throughput, search
effort, broker admission verdicts, view reads — and renders
them in the Prometheus text exposition format (version 0.0.4) for the
service's ``metrics`` protocol op and the CLI ``--metrics`` dump.

Families are created idempotently (``counter``/``gauge``/``histogram``
return the existing family on repeated calls with the same name), and
label handling follows the Prometheus model: a family with label names
hands out per-label-value children through :meth:`MetricFamily.labels`.

Hot paths keep a module-level reference to their child metric and call
``inc``/``observe`` directly — a bound-method call plus an integer add,
cheap enough to stay on even in the engine's inner loop.  Producers
with their own counter state (:data:`repro.workflow.evalstats.EVAL_STATS`
is the canonical one) register a *collector*: a callable invoked right
before every render/snapshot that copies its numbers into gauges, so
legacy counters surface in the same exposition without double counting.

Like :mod:`repro.obs.trace` this module imports nothing from the
package, so every layer can report here without import cycles.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricFamily",
    "MetricsRegistry",
]

#: Default histogram buckets (upper bounds), a geometric ladder wide
#: enough for both "delta keys" (1..100) and microsecond latencies.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000,
)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape(value)}"' for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


def _escape(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down (or be set outright)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    ``buckets`` are the upper bounds of the non-infinite buckets; an
    implicit ``+Inf`` bucket always exists.  :meth:`observe` is O(log
    #buckets) (a bisect into the bound list).
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +Inf last
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds + (math.inf,), self.counts):
            running += count
            out.append((bound, running))
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with help text, a type, and labelled children."""

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: Tuple[str, ...] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = labelnames
        self._buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _make_child(self) -> Any:
        if self.kind == "histogram":
            return Histogram(self._buckets or DEFAULT_BUCKETS)
        return _KINDS[self.kind]()

    def labels(self, **labelvalues: Any) -> Any:
        """The child metric for the given label values (created lazily).

        The label set must be exactly the family's: equal counts plus a
        hit for every label name prove it without building either set.
        """
        names = self.labelnames
        if len(labelvalues) == len(names):
            try:
                key = tuple([str(labelvalues[name]) for name in names])
            except KeyError:
                pass
            else:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._make_child()
                return child
        raise ValueError(
            f"metric {self.name!r} expects labels {self.labelnames!r}, "
            f"got {tuple(sorted(labelvalues))!r}"
        )

    def _default_child(self) -> Any:
        """The unlabelled child (only for families without label names)."""
        if self.labelnames:
            raise ValueError(f"metric {self.name!r} requires labels")
        return self.labels()

    # Unlabelled convenience forwarding: family.inc() etc.
    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def value(self) -> float:
        return self._default_child().value

    def children(self) -> Dict[Tuple[str, ...], Any]:
        return dict(self._children)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {_escape(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key in sorted(self._children):
            child = self._children[key]
            labels = _format_labels(self.labelnames, key)
            if self.kind == "histogram":
                for bound, cumulative in child.cumulative():
                    le = _format_value(bound)
                    bucket_labels = _format_labels(
                        self.labelnames + ("le",), key + (le,)
                    )
                    lines.append(f"{self.name}_bucket{bucket_labels} {cumulative}")
                lines.append(f"{self.name}_sum{labels} {_format_value(child.total)}")
                lines.append(f"{self.name}_count{labels} {child.count}")
            else:
                lines.append(f"{self.name}{labels} {_format_value(child.value)}")
        return lines


class MetricsRegistry:
    """A namespace of metric families with Prometheus text rendering."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self.created_at = time.monotonic()

    # ------------------------------------------------------------------
    # Family creation (idempotent)
    # ------------------------------------------------------------------

    def _family(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: Tuple[str, ...],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.labelnames != labelnames:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.labelnames!r}"
                )
            return family
        family = MetricFamily(name, help, kind, labelnames, buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, help, "counter", tuple(labelnames))

    def gauge(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, help, "gauge", tuple(labelnames))

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._family(name, help, "histogram", tuple(labelnames), buckets)

    # ------------------------------------------------------------------
    # Collectors (pull-time producers)
    # ------------------------------------------------------------------

    def register_collector(
        self, collect: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Run *collect(registry)* before every render/snapshot.

        The hook lets producers that keep their own counters (e.g.
        :data:`~repro.workflow.evalstats.EVAL_STATS`) copy their state
        into gauges at scrape time instead of reporting on every tick.
        """
        if collect not in self._collectors:
            self._collectors.append(collect)

    def _run_collectors(self) -> None:
        for collect in self._collectors:
            try:
                collect(self)
            except Exception:  # a broken producer must not break scraping
                pass

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        self._run_collectors()
        lines: List[str] = []
        for name in sorted(self._families):
            lines.extend(self._families[name].render())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A plain-dict view: family name -> {label tuple repr: value}."""
        self._run_collectors()
        out: Dict[str, Dict[str, Any]] = {}
        for name, family in sorted(self._families.items()):
            samples: Dict[str, Any] = {}
            for key, child in sorted(family.children().items()):
                label = ",".join(key) if key else ""
                if family.kind == "histogram":
                    samples[label] = {"count": child.count, "sum": child.total}
                else:
                    samples[label] = child.value
            out[name] = samples
        return out

    def families(self) -> Dict[str, MetricFamily]:
        return dict(self._families)

    def reset(self) -> None:
        """Zero every child metric in place (test isolation).

        Families and collectors stay registered — hot paths cache their
        family (or child) at import time, and resetting must not orphan
        those references — only the recorded values are cleared.
        """
        for family in self._families.values():
            for child in family.children().values():
                if isinstance(child, Histogram):
                    child.counts = [0] * len(child.counts)
                    child.total = 0.0
                    child.count = 0
                else:
                    child.value = 0.0


#: The process-wide registry every component reports into.
METRICS = MetricsRegistry()
