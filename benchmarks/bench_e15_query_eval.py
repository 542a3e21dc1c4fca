"""E15: indexed, planned FCQ¬ evaluation vs the naive evaluator.

Two questions, one per table:

* **E15** — evaluation throughput.  A two-way join with a negative
  literal over growing view instances, evaluated by the naive
  declared-order backtracking join (full relation scans, linear
  membership) and by the compiled backend (the planner's greedy
  most-selective-first ordering, bound-position hash indexes and O(1)
  membership, executed as a specialized closure).  The naive cost is
  O(n²) in relation size; the compiled cost is O(n · matches), so the
  speedup must *grow* with instance size — the acceptance bar is ≥ 5x
  at the largest configuration.

* **E15b** — applicable-event maintenance.  Along a run of the churn
  workload, advancing the :class:`ApplicableEventIndex` past one event
  is an O(|delta|) view patch plus invalidation of only the rules whose
  bodies the delta touched; building the enumeration state from scratch
  (what ``applicable_events`` does implicitly per call) recomputes every
  acting peer's view, O(|program|·|I|).  The advance column must stay
  flat while the rebuild column grows with |I|.

``BENCH_E15_SCALE=smoke`` shrinks the sizes for CI and relaxes the
speedup assertion to "compiled is not slower" — asymptotic claims need
the full sizes to show.  The full run archives its measurements, with
the machine's ``cpu_count``, in ``BENCH_E15.json`` at the repo root
(the committed baseline).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from conftest import wall_time
from repro.analysis import print_table
from repro.workflow import compiler, planner
from repro.workflow.engine import apply_event_with_delta
from repro.workflow.eventindex import ApplicableEventIndex
from repro.workflow.instance import Instance
from repro.workflow.queries import Const, Query, RelLiteral, Var
from repro.workflow.schema import Relation, Schema
from repro.workflow.tuples import Tuple
from repro.workflow.views import View
from repro.workloads import churn_program

SMOKE = os.environ.get("BENCH_E15_SCALE", "").strip().lower() == "smoke"
SIZES = (50, 100) if SMOKE else (100, 400, 1600)
GROUPS = 16  # join fan-out: each join key matches ~n/GROUPS tuples
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_E15.json"

_baseline: dict = {}


def _join_world(size: int):
    """R ⋈ S on a shared group attribute, with a negative T filter."""
    r = View(Relation("R", ("K", "G", "A")), "p", ("K", "G", "A"))
    s = View(Relation("S", ("K", "G", "B")), "p", ("K", "G", "B"))
    t = View(Relation("T", ("K",)), "p", ("K",))
    schema = Schema([r.view_relation, s.view_relation, t.view_relation])
    inst = Instance.from_tuples(
        schema,
        {
            r.name: [
                Tuple(("K", "G", "A"), (i, i % GROUPS, i % 7)) for i in range(size)
            ],
            s.name: [
                Tuple(("K", "G", "B"), (i, i % GROUPS, i % 5)) for i in range(size)
            ],
            # Half the group ids are "blocked" by T.
            t.name: [Tuple(("K",), (g,)) for g in range(0, GROUPS, 2)],
        },
    )
    x, y, g, a, b = Var("x"), Var("y"), Var("g"), Var("a"), Var("b")
    query = Query(
        [
            RelLiteral(r, (x, g, a)),
            RelLiteral(s, (y, g, b)),
            RelLiteral(t, (g,), positive=False),
        ]
    )
    planner.label_query(query, f"e15-join@{size}")
    return inst, query


def test_e15_eval_throughput(benchmark):
    rows = []
    json_rows = []
    speedups = []
    for size in SIZES:
        inst, query = _join_world(size)
        compiled_results = list(compiler.evaluate(query, inst))
        naive_results = list(query.valuations_naive(inst))
        assert len(compiled_results) == len(naive_results)

        naive_ms = wall_time(lambda: list(query.valuations_naive(inst))) * 1e3
        compiled_ms = wall_time(lambda: list(compiler.evaluate(query, inst))) * 1e3
        speedup = naive_ms / compiled_ms
        speedups.append(speedup)
        rows.append(
            [
                size,
                len(compiled_results),
                f"{naive_ms:.2f}",
                f"{compiled_ms:.2f}",
                f"{speedup:.1f}x",
            ]
        )
        json_rows.append(
            {
                "relation_size": size,
                "valuations": len(compiled_results),
                "naive_ms": round(naive_ms, 3),
                "compiled_ms": round(compiled_ms, 3),
                "speedup": round(speedup, 2),
            }
        )
    print_table(
        "E15: FCQ¬ join evaluation (naive scan vs compiled plan)",
        ["rows/relation", "valuations", "naive ms", "compiled ms", "speedup"],
        rows,
    )
    _baseline["eval"] = json_rows
    if SMOKE:
        assert speedups[-1] > 0.8, "compiled evaluation regressed vs naive"
    else:
        assert speedups[-1] >= 5.0, (
            f"compiled evaluation only {speedups[-1]:.1f}x over naive at the "
            f"largest configuration (acceptance bar is 5x)"
        )
        # The advantage is asymptotic: it must grow with instance size.
        assert speedups[-1] > speedups[0]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e15b_maintenance_scaling(benchmark):
    """Advance is O(|delta|); a from-scratch rebuild is O(|program|·|I|)."""
    from repro.workflow import Event, FreshValue

    program = churn_program()
    schema = program.schema
    make = program.rule("make")
    probe = 10 if SMOKE else 30
    sizes = (50, 100) if SMOKE else (100, 400, 1600)

    rows = []
    json_rows = []
    instance = Instance.empty(schema.schema)
    index = ApplicableEventIndex(program, instance)
    next_fresh = 0
    ratios = []
    for size in sizes:
        while instance.size() < size:
            event = Event(make, {Var("x"): FreshValue(next_fresh)})
            next_fresh += 1
            instance, delta = apply_event_with_delta(schema, instance, event)
            index.advance(delta, instance)

        # Populate the valuation caches so the stale count below shows
        # which rules one event's delta actually invalidates.
        list(index.events())

        steps = []
        for _ in range(probe):
            event = Event(make, {Var("x"): FreshValue(next_fresh)})
            next_fresh += 1
            successor, delta = apply_event_with_delta(schema, instance, event)
            steps.append((successor, delta))
            instance = successor

        def advance():
            for successor, delta in steps:
                index.advance(delta, successor)

        def rebuild():
            for successor, _ in steps:
                ApplicableEventIndex(program, successor)

        advance_us = wall_time(advance, repeat=1) / probe * 1e6
        stale = (
            sum(1 for v in index._valuations if v is None)
            if index._valuations
            else 0
        )
        rebuild_us = wall_time(rebuild, repeat=1) / probe * 1e6
        ratio = rebuild_us / advance_us
        ratios.append(ratio)
        rows.append(
            [
                instance.size(),
                f"{advance_us:.1f}",
                f"{rebuild_us:.1f}",
                f"{ratio:.1f}x",
                f"{stale}/{len(index.rules)}",
            ]
        )
        json_rows.append(
            {
                "instance_size": instance.size(),
                "advance_us_per_event": round(advance_us, 2),
                "rebuild_us_per_event": round(rebuild_us, 2),
                "ratio": round(ratio, 2),
            }
        )
    print_table(
        "E15b: applicable-event maintenance (advance O(|delta|) vs rebuild O(|program|*|I|))",
        ["instance size", "advance us/event", "rebuild us/event", "ratio", "stale rules"],
        rows,
    )
    _baseline["maintenance"] = json_rows
    if not SMOKE:
        # The gap must widen with |I|: advance stays flat, rebuild grows.
        assert ratios[-1] > ratios[0]
        assert ratios[-1] >= 5.0
    # Cross-check: the maintained index still answers correctly.
    from repro.workflow.enumerate import applicable_events

    assert list(index.events()) == list(applicable_events(program, instance))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e15_write_baseline(benchmark):
    """Archive the measured numbers (full runs only — smoke sizes would
    overwrite the committed baseline with non-comparable figures)."""
    if not SMOKE and _baseline:
        BASELINE_PATH.write_text(
            json.dumps(
                {"experiment": "E15", "cpu_count": os.cpu_count(), **_baseline},
                indent=2,
            )
            + "\n"
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
