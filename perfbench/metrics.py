"""The benchmark's metrics: names, units, and how each is computed.

``END_TO_END`` are what a client of ``repro serve`` sees; they come only
from untraced runs.  ``PER_LAYER`` come from a traced run: timer ledgers
written by the serving processes (:mod:`tracing`), counter deltas read
through the ``stats`` op, and the load generator's own CPU time.

Times ending in ``_us_per_event`` divide by events acked ``applied``;
``_per_req`` by requests the server handled; ``_per_call`` by calls of
the timed function.  A layer that does not run in a workload reports 0.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: (name, unit, better)
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("events_per_s", "1/s", "higher"),
    ("submit_p50_ms", "ms", "lower"),
    ("server_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

#: (name, unit, better); README.md gives each one's layer entry points,
#: the end-to-end metric it should move, and where.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("protocol.decode_us_per_req", "us", "lower"),
    ("protocol.encode_us_per_req", "us", "lower"),
    ("serialization.event_from_dict_us_per_event", "us", "lower"),
    ("serialization.instance_to_dict_us_per_call", "us", "lower"),
    ("server.handle_self_us_per_req", "us", "lower"),
    ("broker.wait_us_per_event", "us", "lower"),
    ("broker.events_per_apply", "count", "higher"),
    ("registry.get_us_per_call", "us", "lower"),
    ("registry.apply_self_us_per_event", "us", "lower"),
    ("engine.apply_us_per_event", "us", "lower"),
    ("views.view_instance_us_per_event", "us", "lower"),
    ("views.view_instance_calls_per_event", "count", "lower"),
    ("query.satisfied_by_us_per_event", "us", "lower"),
    ("query.compiled_evals_per_event", "count", "lower"),
    ("query.literals_scanned_per_event", "count", "lower"),
    ("query.index_hits_per_event", "count", "lower"),
    ("dataflow.push_self_us_per_event", "us", "lower"),
    ("dataflow.sub.viewcache_us_per_event", "us", "lower"),
    ("dataflow.sub.provenance_us_per_event", "us", "lower"),
    ("viewcache.read_us_per_call", "us", "lower"),
    ("eventindex.advance_us_per_event", "us", "lower"),
    ("eventindex.events_us_per_call", "us", "lower"),
    ("eventindex.rule_hit_ratio", "ratio", "higher"),
    ("explainer.extend_us_per_event", "us", "lower"),
    ("explainer.minimal_scenario_us_per_call", "us", "lower"),
    ("provenance.citations_us_per_call", "us", "lower"),
    ("provenance.events_visible_to_us_per_call", "us", "lower"),
    ("storage.record_event_us_per_event", "us", "lower"),
    ("storage.snapshot_us_per_event", "us", "lower"),
    ("storage.snapshots_per_event", "count", "lower"),
    ("storage.compactions_per_event", "count", "lower"),
    ("storage.bytes_per_event", "B", "lower"),
    ("router.handle_us_per_req", "us", "lower"),
    ("router.overhead_us_per_req", "us", "lower"),
    ("bench.client_us_per_req", "us", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)

#: Latencies are cut, in the order they were sent, into up to ``BLOCKS``
#: blocks of at least ``BLOCK_SAMPLES`` each; a figure is the median of
#: the blocks' figures, so outside load in one stretch of a window moves
#: it little.  The tail is ``TAIL``, the highest percentile that keeps at
#: least ten samples beyond it in a block; it is fixed so that a change in
#: throughput, which changes block sizes, does not change which
#: percentile is reported.
BLOCKS = 8
BLOCK_SAMPLES = 100
TAIL = 90.0


def percentile(ordered: Sequence[float], q: float) -> float:
    index = min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[index]


def tail(samples: Sequence[float]) -> float:
    return percentile(sorted(samples), TAIL)


def blocks(samples: Sequence[float]) -> List[Sequence[float]]:
    count = max(1, min(BLOCKS, len(samples) // BLOCK_SAMPLES))
    size = len(samples) / count
    return [samples[round(i * size) : round((i + 1) * size)] for i in range(count)]


def blocked_ms(samples: Sequence[float], statistic: Callable[[Sequence[float]], float]) -> float:
    """Median over blocks of *statistic*, in milliseconds."""
    return statistics.median(statistic(block) for block in blocks(samples)) * 1000.0


def describe(samples: Sequence[float]) -> Dict[str, Any]:
    """Sample count and blocking, for the record."""
    parts = blocks(samples)
    return {"samples": len(samples), "blocks": len(parts), "block_samples": len(parts[0])}


def ledger_window(ledger: Dict[str, Any]) -> Dict[str, Any]:
    """Counters between the first and last mark of one process's ledger."""
    marks = ledger["marks"]
    if len(marks) < 2:
        raise ValueError(f"ledger has {len(marks)} marks; the window needs 2")
    first, last = marks[0], marks[-1]
    window: Dict[str, Any] = {
        "wall_ns": last["t_ns"] - first["t_ns"],
        "covered_ns": last["covered_ns"] - first["covered_ns"],
    }
    for field in ("calls", "items", "total_ns", "self_ns"):
        window[field] = {
            name: value - first[field].get(name, 0)
            for name, value in last[field].items()
        }
    return window


def merge_windows(windows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several ledger windows (one per phase) field by field."""
    merged: Dict[str, Any] = {"wall_ns": 0, "covered_ns": 0}
    for field in ("calls", "items", "total_ns", "self_ns"):
        merged[field] = {}
    for window in windows:
        merged["wall_ns"] += window["wall_ns"]
        merged["covered_ns"] += window["covered_ns"]
        for field in ("calls", "items", "total_ns", "self_ns"):
            for name, value in window[field].items():
                merged[field][name] = merged[field].get(name, 0) + value
    return merged


def per_layer(
    server: Dict[str, Any],
    router: Dict[str, Any],
    counters: Dict[str, int],
    disk_bytes: int,
    client_cpu_s: float,
    client_requests: int,
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from the traced window's measurements.

    *server* and *router* are merged ledger windows (the router's is
    empty without one); *counters* are ``stats`` deltas keyed
    ``queries.<field>``.
    """
    calls, items = server["calls"], server["items"]
    total, self_ns = server["total_ns"], server["self_ns"]

    def us(value_ns: float, per: float) -> float:
        return value_ns / per / 1000.0 if per else 0.0

    def t(name: str) -> int:
        return total.get(name, 0)

    def s(name: str) -> int:
        return self_ns.get(name, 0)

    events = items.get("registry.apply", 0) + items.get("registry.apply_batch", 0)
    applies = calls.get("registry.apply", 0) + calls.get("registry.apply_batch", 0)
    requests = calls.get("server.handle", 0)
    shard_per_req = us(
        t("protocol.decode_line") + t("server.handle") + t("protocol.encode_message"),
        requests,
    )
    router_calls = router["calls"].get("router.handle_line", 0)
    router_per_req = us(router["total_ns"].get("router.handle_line", 0), router_calls)
    skipped = counters.get("queries.event_index_rules_skipped", 0)
    reevaluated = counters.get("queries.event_index_rules_reevaluated", 0)
    wall = server["wall_ns"]
    return {
        "protocol.decode_us_per_req": us(t("protocol.decode_line") + t("protocol.parse_request"), requests),
        "protocol.encode_us_per_req": us(t("protocol.encode_message"), requests),
        "serialization.event_from_dict_us_per_event": us(t("serialization.event_from_dict"), calls.get("serialization.event_from_dict", 0)),
        "serialization.instance_to_dict_us_per_call": us(t("serialization.instance_to_dict"), calls.get("serialization.instance_to_dict", 0)),
        "server.handle_self_us_per_req": us(s("server.handle"), requests),
        "broker.wait_us_per_event": us(
            s("broker.submit") + s("broker.submit_many")
            - t("registry.apply") - t("registry.apply_batch"),
            events,
        ),
        "broker.events_per_apply": events / applies if applies else 0.0,
        "registry.get_us_per_call": us(t("registry.get"), calls.get("registry.get", 0)),
        "registry.apply_self_us_per_event": us(s("registry.apply") + s("registry.apply_batch"), events),
        "engine.apply_us_per_event": us(t("engine.apply_event_with_delta") + t("engine.apply_events"), events),
        "views.view_instance_us_per_event": us(t("views.view_instance"), events),
        "views.view_instance_calls_per_event": calls.get("views.view_instance", 0) / events if events else 0.0,
        "query.satisfied_by_us_per_event": us(t("query.satisfied_by"), events),
        "query.compiled_evals_per_event": counters.get("queries.compiled_evals", 0) / events if events else 0.0,
        "query.literals_scanned_per_event": counters.get("queries.literals_scanned", 0) / events if events else 0.0,
        "query.index_hits_per_event": counters.get("queries.index_hits", 0) / events if events else 0.0,
        "dataflow.push_self_us_per_event": us(s("dataflow.push"), events),
        "dataflow.sub.viewcache_us_per_event": us(t("dataflow.sub.viewcache"), events),
        "dataflow.sub.provenance_us_per_event": us(t("dataflow.sub.provenance"), events),
        "viewcache.read_us_per_call": us(t("viewcache.read"), calls.get("viewcache.read", 0)),
        "eventindex.advance_us_per_event": us(t("eventindex.advance") + t("eventindex.advance_many"), events),
        "eventindex.events_us_per_call": us(t("eventindex.events"), calls.get("eventindex.events", 0)),
        "eventindex.rule_hit_ratio": skipped / (skipped + reevaluated) if skipped + reevaluated else 0.0,
        "explainer.extend_us_per_event": us(t("explainer.extend"), events),
        "explainer.minimal_scenario_us_per_call": us(t("explainer.minimal_scenario"), calls.get("explainer.minimal_scenario", 0)),
        "provenance.citations_us_per_call": us(t("provenance.citations"), calls.get("provenance.citations", 0)),
        "provenance.events_visible_to_us_per_call": us(t("provenance.events_visible_to"), calls.get("provenance.events_visible_to", 0)),
        "storage.record_event_us_per_event": us(t("storage.record_event"), events),
        "storage.snapshot_us_per_event": us(t("storage.snapshot"), events),
        "storage.snapshots_per_event": calls.get("storage.snapshot", 0) / events if events else 0.0,
        "storage.compactions_per_event": calls.get("storage.compact", 0) / events if events else 0.0,
        "storage.bytes_per_event": disk_bytes / events if events else 0.0,
        "router.handle_us_per_req": router_per_req,
        "router.overhead_us_per_req": router_per_req - shard_per_req if router_calls else 0.0,
        "bench.client_us_per_req": client_cpu_s * 1e6 / client_requests if client_requests else 0.0,
        "trace.unattributed_share": 1.0 - server["covered_ns"] / wall if wall else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
