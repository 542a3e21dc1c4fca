"""Batched event application ≡ the sequential fold.

:func:`repro.workflow.engine.apply_events` exists purely to amortize
per-event overhead (one tracing span for the whole batch); it must be
*observationally identical* to folding :func:`apply_event_with_delta`
one event at a time — same successor instances, same deltas, and on a
mid-batch rejection the same clean prefix plus the same error.  The
same contract holds for :meth:`ApplicableEventIndex.advance_many`
versus repeated :meth:`advance`.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.workflow import Event, Instance
from repro.workflow.engine import (
    apply_event_with_delta,
    apply_events,
)
from repro.workflow.enumerate import RunGenerator
from repro.workflow.errors import EventError
from repro.workflow.eventindex import ApplicableEventIndex
from repro.workloads.generators import churn_program

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def generated_events(seed, count=12):
    program = churn_program()
    generator = RunGenerator(program, seed=seed)
    return program, list(generator.random_run(count).events)


class TestApplyEvents:
    @SETTINGS
    @given(st.integers(0, 1000), st.integers(0, 15))
    def test_batch_equals_sequential_fold(self, seed, count):
        program, events = generated_events(seed, count)
        instance = Instance.empty(program.schema.schema)

        batched = apply_events(program.schema, instance, events)

        current = instance
        sequential = []
        for event in events:
            successor, delta = apply_event_with_delta(
                program.schema, current, event
            )
            sequential.append((successor, delta))
            current = successor

        assert len(batched) == len(sequential)
        for (b_inst, b_delta), (s_inst, s_delta) in zip(batched, sequential):
            assert b_inst == s_inst
            assert b_delta.changes == s_delta.changes

    def test_empty_batch_is_a_noop(self):
        program, _ = generated_events(0, 0)
        instance = Instance.empty(program.schema.schema)
        assert apply_events(program.schema, instance, []) == []

    def test_mid_batch_rejection_carries_the_clean_prefix(self):
        program, events = generated_events(3, 8)
        instance = Instance.empty(program.schema.schema)
        # Replaying the suffix from the empty instance rejects at some
        # point (its preconditions assume the skipped prefix); the batch
        # must expose exactly the clean prefix the sequential fold
        # would have committed before the same error.
        bad = events[3:] + events[:3]
        current = instance
        sequential = []
        sequential_error = None
        for event in bad:
            try:
                successor, delta = apply_event_with_delta(
                    program.schema, current, event
                )
            except EventError as exc:
                sequential_error = exc
                break
            sequential.append((successor, delta))
            current = successor
        assert sequential_error is not None, "the shuffled batch must reject"

        with pytest.raises(EventError) as caught:
            apply_events(program.schema, instance, bad)
        prefix = caught.value.batch_prefix
        assert type(caught.value) is type(sequential_error)
        assert len(prefix) == len(sequential)
        for (b_inst, b_delta), (s_inst, s_delta) in zip(prefix, sequential):
            assert b_inst == s_inst
            assert b_delta.changes == s_delta.changes


class TestAdvanceMany:
    @SETTINGS
    @given(st.integers(0, 1000), st.integers(1, 12))
    def test_advance_many_equals_repeated_advance(self, seed, count):
        program, events = generated_events(seed, count)
        instance = Instance.empty(program.schema.schema)
        steps = apply_events(program.schema, instance, events)
        # advance()/advance_many() take (delta, successor) pairs in the
        # order the registry feeds them.
        pairs = [(delta, successor) for successor, delta in steps]

        one = ApplicableEventIndex(program, instance)
        for delta, successor in pairs:
            one.advance(delta, successor)
        many = ApplicableEventIndex(program, instance)
        many.advance_many(pairs)

        assert one.instance == many.instance
        for peer in one.graph.peers:
            assert one.graph.snapshot(peer) == many.graph.snapshot(peer)
        from repro.workflow.domain import FreshValueSource

        def canonical(event):
            return (
                event.rule.name,
                tuple(sorted(repr(pair) for pair in event.valuation)),
            )

        events_one = {
            canonical(e) for e in one.events(FreshValueSource(10_000))
        }
        events_many = {
            canonical(e) for e in many.events(FreshValueSource(10_000))
        }
        assert events_one == events_many
