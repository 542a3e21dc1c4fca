"""E22: realistic family throughput across the two query backends.

The four workload families (e-commerce fulfillment, healthcare
approvals, CI/CD pipelines, multi-party procurement) are the
reproduction's "realistic" load: join-heavy rule bodies, negation
guards, keyed deletions, and observer views with selections.  This
experiment prices applying each family's seeded plausible event stream
under both query backends — ``naive`` nested loops and the ``compiled``
closure pipeline over the planner's join order.

Identity is asserted before anything is timed: every backend must
replay the same fixed event stream to bit-identical final views (the
same check the differential fuzzer runs, here at benchmark sizes).
Then each backend's full-stream replay is timed best-of-N and reported
as events/second per family.

The acceptance bar is deliberately about *sanity*, not a horse race:
no backend may fall behind the fastest one by more than 8x on any
family (a regression of that size means a planner or compiler path
went quadratic on realistic shapes).

``BENCH_E22_SCALE=smoke`` shrinks the streams for CI.  The full run
archives its measurements, with the machine's ``cpu_count``, in
``BENCH_E22.json`` at the repo root (the committed baseline).
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from repro.analysis import print_table
from repro.workflow import execute
from repro.workflow.planner import set_backend
from repro.workloads import get_family
from repro.workloads.fuzz import _run_fingerprint

SMOKE = os.environ.get("BENCH_E22_SCALE", "").strip().lower() == "smoke"
STEPS = 40 if SMOKE else 160
ATTEMPTS = 1 if SMOKE else 5  # best-of-N timing passes
BACKENDS = ("naive", "compiled")
FAMILY_NAMES = ("ecommerce", "healthcare", "cicd", "procurement")
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_E22.json"


def _family_world(name):
    family = get_family(name)
    program = family.program()
    run = family.run(seed=22, steps=STEPS, program=program)
    assert run.events, f"family {name} generated an empty stream"
    return program, run


def _assert_identity(program, run):
    """Every backend replays the stream to bit-identical views."""
    prints = {}
    for backend in BACKENDS:
        previous = set_backend(backend)
        try:
            replayed = execute(
                program, run.events, run.initial, check_freshness=False
            )
        finally:
            set_backend(previous)
        prints[backend] = _run_fingerprint(program, replayed)
    baseline = prints[BACKENDS[0]]
    for backend, fingerprint in prints.items():
        assert fingerprint == baseline, (
            f"{backend} diverged from {BACKENDS[0]} on the family stream"
        )


def test_e22_family_throughput(benchmark):
    rows = []
    json_rows = []
    worst_ratio = 1.0
    for name in FAMILY_NAMES:
        program, run = _family_world(name)
        _assert_identity(program, run)

        best = {}
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for backend in BACKENDS:
                previous = set_backend(backend)
                try:
                    elapsed = float("inf")
                    for _ in range(ATTEMPTS):
                        started = time.perf_counter()
                        execute(
                            program, run.events, run.initial,
                            check_freshness=False,
                        )
                        elapsed = min(
                            elapsed, time.perf_counter() - started
                        )
                finally:
                    set_backend(previous)
                best[backend] = elapsed
        finally:
            if enabled:
                gc.enable()

        events = len(run.events)
        throughput = {
            backend: events / elapsed for backend, elapsed in best.items()
        }
        fastest = max(throughput.values())
        worst_ratio = max(
            worst_ratio,
            max(fastest / rate for rate in throughput.values()),
        )
        rows.append(
            [
                name,
                len(program.rules),
                events,
                *(f"{throughput[b]:.0f}" for b in BACKENDS),
            ]
        )
        json_rows.append(
            {
                "family": name,
                "rules": len(program.rules),
                "events": events,
                "events_per_second": {
                    backend: round(rate, 1)
                    for backend, rate in throughput.items()
                },
            }
        )
    print_table(
        "E22: family event-stream replay throughput by query backend "
        "(events/second, best of attempts)",
        ["family", "rules", "events", *BACKENDS],
        rows,
    )

    assert worst_ratio <= 8.0, (
        f"a backend fell {worst_ratio:.1f}x behind the fastest on a "
        f"realistic family (acceptance bar is 8x)"
    )
    if not SMOKE:
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "experiment": "E22",
                    "cpu_count": os.cpu_count(),
                    "steps": STEPS,
                    "families": json_rows,
                    "worst_backend_ratio": round(worst_ratio, 2),
                },
                indent=2,
            )
            + "\n"
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
