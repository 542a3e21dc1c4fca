"""E17: the paper's searches, sequential, priced per state.

Two tables:

* **E17** — bounded state-space exploration with ``dedup="isomorphic"``
  (Lemma A.2's canonical form as the seen-set key) on three workload
  shapes: the narrow ``chain(d)`` family (one successor worth keeping
  per layer), the hiring workflow from the paper, and independent
  parallel chains (many isomorphic interleavings, so most successors
  are deduplicated).  Each workload's
  ``(states_visited, states_deduplicated, transitions)`` is pinned
  before anything is timed: the table prices one fixed search, and a
  dedup key that merged or split a single class would change the
  counts.  The table reports ms per exploration and µs per visited
  state.

* **E17b** — the two other exponential searches: the h-boundedness
  instance sweep (``check_h_bounded``) and the minimum-scenario search,
  with their answers asserted.

``BENCH_E17_SCALE=smoke`` shrinks the workloads for CI.  The full run
archives its measurements, with the machine's ``cpu_count``, in
``BENCH_E17.json`` at the repo root (the committed baseline).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from conftest import wall_time
from repro.analysis import print_table
from repro.core import minimum_scenario
from repro.transparency import SearchBudget, check_h_bounded
from repro.workflow import RunGenerator
from repro.workflow.statespace import StateSpaceExplorer
from repro.workloads import chain_program, churn_program, parallel_chains_program
from repro.workloads.paper_examples import hiring_program

SMOKE = os.environ.get("BENCH_E17_SCALE", "").strip().lower() == "smoke"
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_E17.json"

_baseline: dict = {}


def _workloads():
    """(name, program, depth, (visited, deduplicated, transitions))."""
    if SMOKE:
        return [
            ("chain(4)", chain_program(4), 5, (6, 10, 15)),
            ("hiring", hiring_program(), 4, (15, 11, 25)),
            ("chains(2,2)", parallel_chains_program(2, 2), 3, (10, 11, 20)),
        ]
    return [
        ("chain(7)", chain_program(7), 8, (9, 28, 36)),
        ("hiring", hiring_program(), 7, (77, 179, 255)),
        ("chains(4,3)", parallel_chains_program(4, 3), 6, (190, 767, 956)),
        ("chains(5,3)", parallel_chains_program(5, 3), 8, (1007, 6174, 7180)),
    ]


def test_e17_exploration(benchmark):
    rows = []
    json_rows = []
    for name, program, depth, counts in _workloads():
        stats = StateSpaceExplorer(program).explore(depth).stats
        assert (
            stats.states_visited,
            stats.states_deduplicated,
            stats.transitions,
        ) == counts, f"{name}: exploration counts moved"
        ms = wall_time(lambda: StateSpaceExplorer(program).explore(depth)) * 1e3
        us_per_state = ms * 1e3 / stats.states_visited
        rows.append(
            [
                name,
                depth,
                stats.states_visited,
                stats.states_deduplicated,
                stats.transitions,
                f"{ms:.1f}",
                f"{us_per_state:.0f}",
            ]
        )
        json_rows.append(
            {
                "workload": name,
                "depth": depth,
                "states_visited": stats.states_visited,
                "states_deduplicated": stats.states_deduplicated,
                "transitions": stats.transitions,
                "ms": round(ms, 3),
                "us_per_state": round(us_per_state, 1),
            }
        )
    print_table(
        "E17: state-space exploration, isomorphic dedup (counts pinned)",
        [
            "workload",
            "depth",
            "visited",
            "deduplicated",
            "transitions",
            "ms",
            "µs/state",
        ],
        rows,
    )
    _baseline["exploration"] = json_rows
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e17b_searches(benchmark):
    rows = []
    json_rows = []

    program = chain_program(2)
    budget = SearchBudget(pool_extra=1 if SMOKE else 2, max_tuples_per_relation=1)
    result = check_h_bounded(program, "observer", 3, budget)
    assert result.bounded and result.exhausted
    ms = wall_time(lambda: check_h_bounded(program, "observer", 3, budget)) * 1e3
    rows.append(
        [
            "check_h_bounded chain(2) h=3",
            f"bounded, {result.instances_checked} instances",
            f"{ms:.1f}",
        ]
    )
    json_rows.append(
        {
            "search": "check_h_bounded",
            "instances": result.instances_checked,
            "ms": round(ms, 3),
        }
    )

    run = RunGenerator(churn_program(), seed=3).random_run(8 if SMOKE else 12)
    best = minimum_scenario(run, "observer")
    assert best is not None
    ms = wall_time(lambda: minimum_scenario(run, "observer")) * 1e3
    rows.append(
        [
            f"minimum_scenario churn ({len(run)} events)",
            f"{len(best)} events",
            f"{ms:.1f}",
        ]
    )
    json_rows.append(
        {"search": "minimum_scenario", "scenario_size": len(best), "ms": round(ms, 3)}
    )
    print_table(
        "E17b: boundedness sweep and minimum-scenario search",
        ["search", "answer", "ms"],
        rows,
    )
    _baseline["searches"] = json_rows
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e17_write_baseline(benchmark):
    """Archive the measured numbers (full runs only — smoke sizes would
    overwrite the committed baseline with non-comparable figures)."""
    if not SMOKE and _baseline:
        BASELINE_PATH.write_text(
            json.dumps(
                {"experiment": "E17", "cpu_count": os.cpu_count(), **_baseline},
                indent=2,
            )
            + "\n"
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
