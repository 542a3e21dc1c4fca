"""Differential fuzzing: every backend pair agrees on every program.

A deterministic corpus of fuzzer-generated programs plus the four
realistic families is pushed through every engine pair — naive vs
compiled query backends, graph-patched views and the applicable-event
index's cached rule bodies vs from-scratch recomputation, journal
recovery vs the live run, and an in-process service (the cluster
router's worker) vs the offline run.  Any divergence fails with a
copy-pasteable reproduce one-liner
(``python -m repro.workloads.fuzz --seed N --steps S``) that replays and
shrinks the offending program.

``FUZZ_SCALE`` sizes the corpus: ``smoke`` (the default, tier-1 speed),
``ci`` (the 200-seed acceptance sweep the workload-fuzz CI job runs),
or ``nightly`` (a larger scheduled sweep).  The seeds are fixed per
scale — this is a regression corpus, not a random walk.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.workloads import (
    differential_check,
    family_names,
    fuzz_program,
    get_family,
)
from repro.workflow.enumerate import applicable_events
from repro.workflow.eventindex import ApplicableEventIndex
from repro.workloads.fuzz import PAIRS

_SCALES = {"smoke": 25, "ci": 200, "nightly": 500}
_SCALE = os.environ.get("FUZZ_SCALE", "smoke")
SEEDS = list(range(_SCALES.get(_SCALE, _SCALES["smoke"])))

#: The service pair spins up an in-process service per check; run it on
#: a slice of the corpus so the full sweep stays fast while every seed
#: still covers backends, dataflow and recovery.
CLUSTER_EVERY = 5
FAST_PAIRS = ("backends", "dataflow", "recovery")


def _assert_ok(report):
    assert report.ok, f"{report.summary()}\nreproduce: {report.reproduce()}"


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_programs_agree_across_engines(seed):
    pairs = PAIRS if seed % CLUSTER_EVERY == 0 else FAST_PAIRS
    program = fuzz_program(seed)
    _assert_ok(differential_check(program, seed=seed, steps=12, pairs=pairs))


@pytest.mark.parametrize("name", family_names())
@pytest.mark.parametrize("seed", SEEDS[:: max(1, len(SEEDS) // 5)])
def test_families_agree_across_engines(name, seed):
    family = get_family(name)
    program = family.program()
    pairs = PAIRS if seed % CLUSTER_EVERY == 0 else FAST_PAIRS
    _assert_ok(
        differential_check(
            program, seed=seed, steps=14, pairs=pairs, label=name
        )
    )


@given(seed=st.integers(min_value=10_000, max_value=1_000_000),
       steps=st.integers(min_value=4, max_value=16))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hypothesis_sweep_backends_and_dataflow(seed, steps):
    """Hypothesis drives seeds outside the fixed corpus; on failure its
    shrinker minimizes (seed, steps) and the assert carries the
    fuzzer's own reproduce one-liner for the program-level shrink."""
    program = fuzz_program(seed)
    _assert_ok(
        differential_check(
            program, seed=seed, steps=steps, pairs=("backends", "dataflow")
        )
    )


def test_dataflow_pair_catches_skipped_rule_invalidation(monkeypatch):
    """The dataflow pair is not vacuous: an index that keeps following
    its graph but never invalidates a cached rule body fails it on the
    corpus."""

    def advance_without_invalidation(self, steps):
        for delta, successor in steps:
            if self._owns_graph:
                self.graph.push(delta, successor)

    monkeypatch.setattr(
        ApplicableEventIndex, "_advance", advance_without_invalidation
    )
    failures = [
        outcome.detail
        for seed in range(_SCALES["smoke"])
        for outcome in differential_check(
            fuzz_program(seed), seed=seed, steps=12, pairs=("dataflow",)
        ).failures
    ]
    assert failures
    assert all("index-maintained body" in detail for detail in failures)


def test_dataflow_pair_catches_unminted_skipped_rules(monkeypatch):
    """The per-peer comparison is not vacuous: an index that skips other
    peers' rules without minting their fresh values (as
    ``applicable_events(peers=...)`` does) fails it on the corpus."""

    def events_without_minting(
        self, fresh_source=None, used_values=None, head_only_values=None, peer=None
    ):
        return applicable_events(
            self.program,
            self.instance,
            fresh_source,
            used_values,
            peers=None if peer is None else [peer],
            head_only_values=head_only_values,
        )

    monkeypatch.setattr(ApplicableEventIndex, "events", events_without_minting)
    failures = [
        outcome.detail
        for seed in range(_SCALES["smoke"])
        for outcome in differential_check(
            fuzz_program(seed), seed=seed, steps=12, pairs=("dataflow",)
        ).failures
    ]
    assert failures
    assert all("index-enumerated events" in detail for detail in failures)


def test_reproduce_one_liner_actually_reproduces():
    """The CLI entry named in failure messages runs the same check."""
    from repro.workloads.fuzz import main

    assert main(["--seed", "3", "--steps", "10"]) == 0
    assert main(["--family", "ecommerce", "--seed", "1", "--steps", "8"]) == 0
