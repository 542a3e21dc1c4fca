"""The process-wide metrics registry: instruments, families, rendering."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_arithmetic(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative_increment(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == pytest.approx(11.5)

    def test_histogram_counts_and_sum(self):
        histogram = Histogram(buckets=(1, 5, 10))
        for value in (0.5, 3, 7, 100):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == pytest.approx(110.5)

    def test_histogram_cumulative_buckets(self):
        histogram = Histogram(buckets=(1, 5, 10))
        for value in (0.5, 3, 7, 100):
            histogram.observe(value)
        cumulative = histogram.cumulative()
        # Cumulative counts are monotone and end with +Inf == count.
        assert cumulative == [(1, 1), (5, 2), (10, 3), (float("inf"), 4)]

    def test_histogram_boundary_lands_in_bucket(self):
        # Prometheus buckets are `le` (less-or-equal) bounds.
        histogram = Histogram(buckets=(1, 5))
        histogram.observe(1)
        assert histogram.cumulative()[0] == (1, 1)

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestFamilies:
    def test_labelled_children_are_idempotent(self):
        registry = MetricsRegistry()
        family = registry.counter("requests_total", "reqs", labelnames=("op",))
        first = family.labels(op="ping")
        second = family.labels(op="ping")
        assert first is second
        first.inc()
        assert second.value == 1

    def test_label_name_mismatch_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("requests_total", "reqs", labelnames=("op",))
        with pytest.raises(ValueError):
            family.labels(peer="sue")

    def test_label_mismatch_rejected_once_children_exist(self):
        """The lookup of an existing child still checks the label set:
        a wrong name, a missing one or an extra one raises."""
        registry = MetricsRegistry()
        family = registry.counter(
            "requests_total", "reqs", labelnames=("op", "outcome")
        )
        family.labels(op="submit", outcome="ok").inc()
        for wrong in (
            {"op": "submit", "status": "ok"},
            {"op": "submit"},
            {"op": "submit", "outcome": "ok", "peer": "sue"},
        ):
            with pytest.raises(ValueError):
                family.labels(**wrong)
        assert family.labels(outcome="ok", op="submit").value == 1
        assert list(family.children()) == [("submit", "ok")]

    def test_unlabelled_family_forwards_operations(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "events")
        counter.inc(3)
        assert counter.value == 3

    def test_unlabelled_use_of_labelled_family_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("requests_total", "reqs", labelnames=("op",))
        with pytest.raises(ValueError):
            family.inc()

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("events_total", "events")
        second = registry.counter("events_total", "events")
        assert first is second

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("events_total", "events")
        with pytest.raises(ValueError):
            registry.gauge("events_total", "events")

    def test_labelnames_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "reqs", labelnames=("op",))
        with pytest.raises(ValueError):
            registry.counter("requests_total", "reqs", labelnames=("peer",))


class TestRendering:
    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Requests.", labelnames=("op",)).labels(
            op="ping"
        ).inc(2)
        registry.gauge("depth", "Queue depth.").set(3)
        text = registry.render_prometheus()
        assert "# HELP requests_total Requests." in text
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{op="ping"} 2' in text
        assert "# TYPE depth gauge" in text
        assert "depth 3" in text
        assert text.endswith("\n")

    def test_prometheus_histogram_exposition(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", "Latency.", buckets=(1, 5))
        for value in (0.5, 3, 7):
            histogram.observe(value)
        text = registry.render_prometheus()
        assert 'latency_bucket{le="1"} 1' in text
        assert 'latency_bucket{le="5"} 2' in text
        assert 'latency_bucket{le="+Inf"} 3' in text
        assert "latency_sum 10.5" in text
        assert "latency_count 3" in text

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "reqs", labelnames=("op",)).labels(
            op="ping"
        ).inc()
        registry.histogram("latency", "lat", buckets=(1,)).observe(2)
        snapshot = registry.snapshot()
        assert snapshot["requests_total"]["ping"] == 1
        assert snapshot["latency"][""] == {"count": 1, "sum": 2}

    def test_render_is_sorted_by_family_name(self):
        registry = MetricsRegistry()
        registry.counter("zz_total", "z").inc()
        registry.counter("aa_total", "a").inc()
        text = registry.render_prometheus()
        assert text.index("aa_total") < text.index("zz_total")


class TestResetAndCollectors:
    def test_reset_zeroes_in_place(self):
        # Hot paths cache child references at import time; reset() must
        # zero those same objects, not orphan them.
        registry = MetricsRegistry()
        cached = registry.counter("events_total", "events", labelnames=("op",)).labels(
            op="apply"
        )
        cached.inc(5)
        registry.reset()
        assert cached.value == 0
        cached.inc()
        assert registry.snapshot()["events_total"]["apply"] == 1

    def test_collectors_run_at_scrape_time(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("live_runs", "Live runs.")
        state = {"runs": 7}
        registry.register_collector(lambda _reg: gauge.set(state["runs"]))
        assert "live_runs 7" in registry.render_prometheus()
        state["runs"] = 2
        assert "live_runs 2" in registry.render_prometheus()

    def test_broken_collector_does_not_break_scrape(self):
        registry = MetricsRegistry()
        registry.counter("ok_total", "ok").inc()

        def explode(_registry):
            raise RuntimeError("collector bug")

        registry.register_collector(explode)
        assert "ok_total 1" in registry.render_prometheus()


class TestGlobalRegistryIntegration:
    def test_engine_reports_into_global_registry(self, approval):
        from repro.obs.metrics import METRICS
        from repro.workflow import Event, execute

        before = METRICS.snapshot().get("repro_engine_events_applied_total", {}).get("", 0)
        execute(approval, [Event(approval.rule(name), {}) for name in "efgh"])
        after = METRICS.snapshot()["repro_engine_events_applied_total"][""]
        assert after == before + 4

    def test_global_render_is_valid_prometheus(self):
        from repro.obs.metrics import METRICS

        for line in METRICS.render_prometheus().splitlines():
            assert line.startswith("#") or " " in line
