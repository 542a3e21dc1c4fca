"""E21: the dataflow core — per-event cost scales with |delta|, not |instance|.

One growth workload (a maker peer minting objects, an auditor stamping
facts over them, an observer seeing the audit trail): the instance grows
linearly with the events applied, so any derived artifact recomputed
from scratch — per-peer view instances, rule-body valuations — costs
O(|instance|) per event.  The :class:`~repro.dataflow.graph.DeltaGraph`
claims O(|delta|) for the views: one fused observation pass per
transition, patched views.  Rule bodies follow the path production
runs: the :class:`~repro.workflow.eventindex.ApplicableEventIndex`
consumes each push's effect, invalidates the rules whose views changed
and re-evaluates only those.

The experiment builds instances of increasing size, then measures the
per-event cost of advancing every derived artifact past the same tail
of transitions two ways:

* **scratch** — recompute each peer's view instance and each rule
  body's valuations from the successor instance (what the pre-dataflow
  consumers did, each on their own);
* **incremental** — ``DeltaGraph.push`` with every peer's view
  materialized, ``ApplicableEventIndex.advance`` with the push's
  effect, then every stale rule body re-evaluated.

Identity is asserted before anything is timed: after the tail the
patched views and the index's valuations must equal the from-scratch
recomputation bit for bit.  Two bars at the largest size (full runs):
the incremental path must win ≥ 5×, and its per-event cost must stay
flat — growing by at most a quarter of the scratch path's growth factor
across the size sweep, the measured form of "|delta|, not |instance|".
A stale rule is re-evaluated from its maintained view, so its share of
the incremental cost does grow with the valuations it returns.

A second table (E21m) prices the memory a hosted run keeps for its
derived state.  Over a 600-event stream of the cicd and procurement
families, tracemalloc counts what the run holds beyond its global
instance (the event log, the provenance log, the materialized views
and the index's cached valuations) at three points: after applying the
stream with nobody reading, after ``applicable`` for every acting peer
and ``view`` for the family's observer, and after ``view`` for every
peer.  The instance alone is the engine replaying the same stream.
Then it prices the explainers: the KiB the family observer's explainer
adds to that run, the KiB every peer's explainers add (the observer's
included), and, timed without tracemalloc on a fresh copy of the run,
a late explainer's catch-up in µs per event already applied (best of
the timing passes).

``BENCH_E21_SCALE=smoke`` shrinks the sizes for CI and keeps only a
no-regression sanity bar.  The full run archives its measurements, with
the machine's ``cpu_count``, in ``BENCH_E21.json`` at the repo root
(the committed baseline).
"""

from __future__ import annotations

import gc
import json
import os
import time
import tracemalloc
from collections import Counter
from pathlib import Path

from repro.analysis import print_table
from repro.dataflow import DeltaGraph
from repro.service.registry import HostedRun
from repro.workflow import Event, Instance, RunGenerator, parse_program
from repro.workflow.engine import apply_event_with_delta, apply_events
from repro.workflow.eventindex import ApplicableEventIndex
from repro.workloads import get_family

SMOKE = os.environ.get("BENCH_E21_SCALE", "").strip().lower() == "smoke"
SIZES = (64, 256) if SMOKE else (128, 512, 2048)
TAIL = 8 if SMOKE else 16  # measured transitions per size
ATTEMPTS = 1 if SMOKE else 5  # best-of-N timing passes
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_E21.json"
MEMORY_FAMILIES = ("cicd", "procurement")
MEMORY_EVENTS = 120 if SMOKE else 600


def growth_program():
    """Insert-only churn: the instance grows with every applied event."""
    return parse_program(
        """
        peers maker, auditor, observer
        relation Obj(K)
        relation Audit(K, obj)
        view Obj@maker(K)
        view Obj@auditor(K)
        view Audit@auditor(K, obj)
        view Audit@observer(K, obj)
        [make]  +Obj@maker(x) :-
        [audit] +Audit@auditor(a, x) :- Obj@auditor(x)
        """
    )


def _world(size):
    """The instance after *size* events plus the measured tail of deltas."""
    program = growth_program()
    schema = program.schema
    run = RunGenerator(program, seed=21).random_run(size + TAIL)
    instance = run.initial
    tail = []
    for position, (event, successor) in enumerate(zip(run.events, run.instances)):
        _, delta = apply_event_with_delta(
            schema, instance, event, forbidden_fresh=None, check_body=False
        )
        if position >= size:
            tail.append((delta, successor))
        else:
            prefix_end = successor
        instance = successor
    prefix = run.initial if size == 0 else prefix_end
    tuples = sum(
        len(prefix.relation(name)) for name in schema.schema.relation_names
    )
    return program, prefix, tail, tuples


def _scratch_pass(schema, rules, tail):
    for _, successor in tail:
        for peer in schema.peers:
            schema.view_instance(successor, peer)
        for rule in rules:
            list(rule.body.valuations(schema.view_instance(successor, rule.peer)))


def _primed(program, prefix):
    """A graph with every view materialized and an index with every rule
    body's valuations cached."""
    graph = DeltaGraph(program.schema, prefix)
    for peer in program.schema.peers:
        graph.snapshot(peer)
    index = ApplicableEventIndex(program, prefix, graph=graph)
    for i in range(len(index.rules)):
        index.body_valuations(i)
    return graph, index


def _incremental_pass(graph, index, tail):
    rules = range(len(index.rules))
    for delta, successor in tail:
        index.advance(graph.push(delta, successor), successor)
        for i in rules:
            index.body_valuations(i)


def _multiset(valuations):
    return Counter(
        tuple(sorted((var.name, repr(value)) for var, value in valuation.items()))
        for valuation in valuations
    )


def _assert_identity(program, prefix, tail):
    """Pushed artifacts ≡ from-scratch recomputation (untimed)."""
    schema = program.schema
    graph, index = _primed(program, prefix)
    for delta, successor in tail:
        _incremental_pass(graph, index, [(delta, successor)])
        assert graph.snapshot() == successor
    final = tail[-1][1]
    for peer in schema.peers:
        assert graph.snapshot(peer) == schema.view_instance(final, peer)
    for i, rule in enumerate(index.rules):
        expected = rule.body.valuations(schema.view_instance(final, rule.peer))
        assert _multiset(index.body_valuations(i)) == _multiset(expected)


def _hosted_memory_kib(name):
    """KiB one hosted run keeps beyond its instance, at three read points."""
    family = get_family(name)
    program = family.program()
    events = family.events(seed=22, steps=MEMORY_EVENTS, program=program)
    initial = Instance.empty(program.schema.schema)
    acting = list(dict.fromkeys(rule.peer for rule in program.rules))

    def host(stream=events):
        hosted = HostedRun("e21m", program, initial)
        for start in range(0, len(stream), 64):
            hosted.apply_batch(stream[start : start + 64])
        return hosted

    def read(hosted):
        for peer in acting:
            hosted.applicable(peer)
        hosted.view_instance(family.observer)
        first = _traced_kib()
        for peer in program.schema.peers:
            hosted.view_instance(peer)
        return first, _traced_kib()

    def catch_up_us():
        # Fresh event objects: nothing memoized on them by earlier passes.
        hosted = host([Event(event.rule, event.valuation_dict()) for event in events])
        started = time.perf_counter()
        hosted.explainer(family.observer)
        return (time.perf_counter() - started) * 1e6 / len(events)

    read(host())  # warm-up: plans compiled and labelled untraced
    gc.collect()
    tracemalloc.start()
    try:
        final = apply_events(program.schema, initial, events)[-1][0]
        instance = _traced_kib()
        del final
        base = _traced_kib()
        hosted = host()
        unread = _traced_kib() - base
        first, every = read(hosted)
        hosted.explainer(family.observer)
        observer_explainer = _traced_kib()
        for peer in program.schema.peers:
            hosted.explainer(peer)
        explainers = _traced_kib()
    finally:
        tracemalloc.stop()
    return {
        "family": name,
        "events": len(events),
        "instance_kib": round(instance, 1),
        "unread_kib": round(unread - instance, 1),
        "acting_and_observer_kib": round(first - base - instance, 1),
        "every_view_kib": round(every - base - instance, 1),
        "observer_explainer_kib": round(observer_explainer - every, 1),
        "every_explainer_kib": round(explainers - every, 1),
        "catch_up_us_per_event": round(
            min(catch_up_us() for _ in range(ATTEMPTS)), 1
        ),
    }


def _traced_kib():
    gc.collect()
    return tracemalloc.get_traced_memory()[0] / 1024


def _archive(**fields):
    """Merge *fields* into the committed baseline (full runs only)."""
    data = json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
    data.update(experiment="E21", cpu_count=os.cpu_count(), **fields)
    BASELINE_PATH.write_text(json.dumps(data, indent=2) + "\n")


def test_e21_dataflow_scaling(benchmark):
    rows = []
    json_rows = []
    scratch_per_event = []
    incremental_per_event = []
    for size in SIZES:
        program, prefix, tail, tuples = _world(size)
        schema, rules = program.schema, program.rules
        _assert_identity(program, prefix, tail)

        best_scratch = best_incremental = float("inf")
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for _ in range(ATTEMPTS):
                started = time.perf_counter()
                _scratch_pass(schema, rules, tail)
                best_scratch = min(best_scratch, time.perf_counter() - started)

                graph, index = _primed(program, prefix)  # untimed setup
                started = time.perf_counter()
                _incremental_pass(graph, index, tail)
                best_incremental = min(
                    best_incremental, time.perf_counter() - started
                )
        finally:
            if enabled:
                gc.enable()

        scratch_ms = best_scratch * 1e3 / TAIL
        incremental_ms = best_incremental * 1e3 / TAIL
        speedup = scratch_ms / incremental_ms
        scratch_per_event.append(scratch_ms)
        incremental_per_event.append(incremental_ms)
        rows.append(
            [
                size,
                tuples,
                f"{scratch_ms:.3f}",
                f"{incremental_ms:.3f}",
                f"{speedup:.1f}x",
            ]
        )
        json_rows.append(
            {
                "events_applied": size,
                "instance_tuples": tuples,
                "scratch_ms_per_event": round(scratch_ms, 4),
                "incremental_ms_per_event": round(incremental_ms, 4),
                "speedup": round(speedup, 2),
            }
        )
    print_table(
        "E21: derived-artifact maintenance per event "
        "(from-scratch recompute vs graph push + event-index advance)",
        ["events applied", "tuples", "scratch ms/ev", "incremental ms/ev", "speedup"],
        rows,
    )

    scratch_growth = scratch_per_event[-1] / scratch_per_event[0]
    incremental_growth = incremental_per_event[-1] / incremental_per_event[0]
    final_speedup = scratch_per_event[-1] / incremental_per_event[-1]
    if SMOKE:
        assert final_speedup > 0.8, (
            "incremental maintenance regressed against from-scratch recompute"
        )
    else:
        assert final_speedup >= 5.0, (
            f"incremental maintenance only {final_speedup:.1f}x over "
            f"from-scratch at the largest instance (acceptance bar is 5x)"
        )
        # The scaling claim itself: scratch grows with |instance| while
        # the push cost tracks |delta|, which is constant here.
        assert scratch_growth >= 4.0, (
            f"workload failed to make from-scratch recompute scale "
            f"(grew only {scratch_growth:.1f}x) — the comparison is vacuous"
        )
        assert incremental_growth <= scratch_growth / 4.0, (
            f"per-event incremental cost grew {incremental_growth:.1f}x across "
            f"the sweep vs {scratch_growth:.1f}x from scratch — it is not "
            f"scaling with |delta|"
        )
        _archive(
            sizes=json_rows,
            scratch_growth=round(scratch_growth, 2),
            incremental_growth=round(incremental_growth, 2),
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e21_memory_table(benchmark):
    rows = [_hosted_memory_kib(name) for name in MEMORY_FAMILIES]
    print_table(
        f"E21m: KiB a hosted run keeps beyond its instance "
        f"({MEMORY_EVENTS}-event streams, tracemalloc)",
        [
            "family",
            "instance",
            "unread",
            "acting applicable + observer view",
            "every view",
            "observer explainer",
            "every explainer",
            "catch-up us/ev",
        ],
        [
            [
                row["family"],
                row["instance_kib"],
                row["unread_kib"],
                row["acting_and_observer_kib"],
                row["every_view_kib"],
                row["observer_explainer_kib"],
                row["every_explainer_kib"],
                row["catch_up_us_per_event"],
            ]
            for row in rows
        ],
    )
    for row in rows:
        # Reads only ever add derived state.
        assert row["unread_kib"] <= row["acting_and_observer_kib"] <= row["every_view_kib"]
        assert 0 < row["observer_explainer_kib"] <= row["every_explainer_kib"]
    if not SMOKE:
        _archive(memory=rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
