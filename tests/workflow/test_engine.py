"""Tests for the transition semantics (insertion/deletion applicability)."""

import pytest

from repro.workflow.conditions import Eq
from repro.workflow.domain import NULL
from repro.workflow.engine import (
    apply_event,
    deletion_result,
    event_applicable,
    event_effect,
    insertion_result,
)
from repro.workflow.errors import EventError, FreshnessViolation, UpdateNotApplicable
from repro.workflow.events import Event
from repro.workflow.instance import Instance
from repro.workflow.queries import Comparison, Const, Query, RelLiteral, Var
from repro.workflow.rules import Deletion, Insertion, Rule
from repro.workflow.schema import Relation, Schema
from repro.workflow.tuples import Tuple
from repro.workflow.views import CollaborativeSchema, View

R = Relation("R", ("K", "A", "B"))
D = Schema([R])

# p sees K, A of all tuples; q sees everything but only tuples with A='ok'.
VIEW_P = View(R, "p", ("K", "A"))
VIEW_Q = View(R, "q", ("K", "A", "B"), Eq("A", "ok"))
CS = CollaborativeSchema(D, ["p", "q"], [VIEW_P, VIEW_Q])

x, y = Var("x"), Var("y")


def rt(k, a, b):
    return Tuple(("K", "A", "B"), (k, a, b))


def inst(*tuples):
    return Instance.from_tuples(D, {"R": tuples})


class TestInsertion:
    def test_new_tuple(self):
        ins = Insertion(VIEW_P, (Const(1), Const("ok")))
        result = insertion_result(CS, Instance.empty(D), ins)
        assert result.tuple_with_key("R", 1).values == (1, "ok", NULL)

    def test_merge_fills_null(self):
        ins = Insertion(VIEW_Q, (Const(1), Const("ok"), Const("b")))
        result = insertion_result(CS, inst(rt(1, "ok", NULL)), ins)
        assert result.tuple_with_key("R", 1).values == (1, "ok", "b")

    def test_chase_conflict_not_applicable(self):
        ins = Insertion(VIEW_P, (Const(1), Const("no")))
        with pytest.raises(UpdateNotApplicable):
            insertion_result(CS, inst(rt(1, "ok", NULL)), ins)

    def test_null_key_not_applicable(self):
        ins = Insertion(VIEW_P, (Const(NULL), Const("ok")))
        with pytest.raises(UpdateNotApplicable):
            insertion_result(CS, Instance.empty(D), ins)

    def test_subsumption_failure_invisible_tuple(self):
        # q only sees tuples with A='ok': inserting A='no' via q's view
        # leaves the tuple invisible to q, violating condition (ii).
        ins = Insertion(VIEW_Q, (Const(1), Const("no"), Const("b")))
        with pytest.raises(UpdateNotApplicable):
            insertion_result(CS, Instance.empty(D), ins)

    def test_insert_visible_after_merge(self):
        # Tuple already has A='ok'; q inserts B only: still visible.
        ins = Insertion(VIEW_Q, (Const(1), Const("ok"), Const("b")))
        result = insertion_result(CS, inst(rt(1, "ok", NULL)), ins)
        assert result.tuple_with_key("R", 1)["B"] == "b"

    def test_reinsert_existing_tuple_is_noop(self):
        ins = Insertion(VIEW_P, (Const(1), Const("ok")))
        start = inst(rt(1, "ok", NULL))
        assert insertion_result(CS, start, ins) == start


class TestDeletion:
    def test_deletes_visible_tuple(self):
        dele = Deletion(VIEW_Q, Const(1))
        result = deletion_result(CS, inst(rt(1, "ok", "b")), dele)
        assert not result.has_key("R", 1)

    def test_invisible_tuple_not_deletable(self):
        # q does not see tuples with A='no'.
        dele = Deletion(VIEW_Q, Const(1))
        with pytest.raises(UpdateNotApplicable):
            deletion_result(CS, inst(rt(1, "no", "b")), dele)

    def test_missing_key_not_deletable(self):
        dele = Deletion(VIEW_P, Const(7))
        with pytest.raises(UpdateNotApplicable):
            deletion_result(CS, Instance.empty(D), dele)


def make_program():
    """A tiny two-rule program for event application tests."""
    from repro.workflow.program import WorkflowProgram

    insert_rule = Rule("ins", (Insertion(VIEW_P, (x, y)),), Query(()))
    # y is head-only in 'move': it gets a globally fresh key, so no body
    # inequality with x is needed.
    move_rule = Rule(
        "move",
        (Deletion(VIEW_P, x), Insertion(VIEW_P, (y, Const("ok")))),
        Query([RelLiteral(VIEW_P, (x, Const("ok")))]),
    )
    return WorkflowProgram(CS, [insert_rule, move_rule])


class TestApplyEvent:
    def test_body_checked(self):
        program = make_program()
        event = Event(program.rule("move"), {x: 1, y: 2})
        with pytest.raises(EventError):
            apply_event(CS, Instance.empty(D), event)

    def test_fires_when_body_holds(self):
        program = make_program()
        start = inst(rt(1, "ok", NULL))
        event = Event(program.rule("move"), {x: 1, y: 2})
        result = apply_event(CS, start, event)
        assert not result.has_key("R", 1)
        assert result.has_key("R", 2)

    def test_freshness_enforced(self):
        program = make_program()
        event = Event(program.rule("ins"), {x: 1, y: "v"})
        with pytest.raises(FreshnessViolation):
            apply_event(CS, Instance.empty(D), event, forbidden_fresh=frozenset({1}))

    def test_shared_head_only_values_rejected(self):
        program = make_program()
        event = Event(program.rule("ins"), {x: 5, y: 5})
        with pytest.raises(FreshnessViolation):
            apply_event(CS, Instance.empty(D), event, forbidden_fresh=frozenset())

    def test_freshness_skipped_when_none(self):
        program = make_program()
        event = Event(program.rule("ins"), {x: 1, y: "v"})
        result = apply_event(CS, Instance.empty(D), event, forbidden_fresh=None)
        assert result.has_key("R", 1)

    def test_all_updates_must_be_applicable(self):
        # 'move' deletes x and inserts y; if y conflicts, nothing happens.
        program = make_program()
        start = inst(rt(1, "ok", NULL), rt(2, "no", NULL))
        event = Event(program.rule("move"), {x: 1, y: 2})
        with pytest.raises(EventError):
            apply_event(CS, start, event)
        # The failed event must not have deleted tuple 1.
        assert start.has_key("R", 1)

    def test_event_applicable_predicate(self):
        program = make_program()
        start = inst(rt(1, "ok", NULL))
        assert event_applicable(CS, start, Event(program.rule("move"), {x: 1, y: 2}))
        assert not event_applicable(CS, start, Event(program.rule("move"), {x: 9, y: 2}))


class TestEventEffect:
    def test_created_deleted_modified(self):
        before = inst(rt(1, "ok", NULL), rt(2, "ok", NULL))
        after = inst(rt(2, "ok", "b"), rt(3, "ok", NULL))
        effect = event_effect(CS, before, after, "R")
        assert effect["created"] == {3}
        assert effect["deleted"] == {1}
        assert effect["modified"] == {2}


def _engine_counts():
    """(events applied, events rejected) on the process-wide registry."""
    from repro.obs.metrics import METRICS

    snapshot = METRICS.snapshot()
    applied = snapshot.get("repro_engine_events_applied_total", {}).get("", 0)
    rejected = sum(snapshot.get("repro_engine_event_rejections_total", {}).values())
    return applied, rejected


class TestApplicabilityProbes:
    """Probing whether events apply is not applying them."""

    def test_probes_tick_no_engine_counter(self):
        from repro.workflow.enumerate import applicable_events
        from repro.workflow.eventindex import ApplicableEventIndex
        from repro.workloads import get_family

        family = get_family("healthcare")
        program = family.program()
        run = family.run(seed=1, steps=24, program=program)
        instance = run.instance_after(len(run) // 2)
        index = ApplicableEventIndex(program, instance)
        before = _engine_counts()
        indexed = list(index.events())
        scratch = list(applicable_events(program, instance))
        assert indexed and len(indexed) == len(scratch)
        assert _engine_counts() == before
        # Applying one of them still counts.
        apply_event(program.schema, instance, indexed[0])
        assert _engine_counts() == (before[0] + 1, before[1])

    def test_event_applicable_ticks_no_engine_counter(self):
        program = make_program()
        start = inst(rt(1, "ok", NULL))
        before = _engine_counts()
        assert event_applicable(CS, start, Event(program.rule("move"), {x: 1, y: 2}))
        assert not event_applicable(CS, start, Event(program.rule("move"), {x: 9, y: 2}))
        assert _engine_counts() == before

    def test_probe_agrees_with_apply_without_body_check(self):
        program = make_program()
        start = inst(rt(1, "ok", NULL))
        # x=9 fails the body, but the updates alone are checked here:
        # deleting key 9 is not applicable either way.
        for valuation in ({x: 1, y: 2}, {x: 9, y: 2}, {x: 1, y: 1}):
            event = Event(program.rule("move"), valuation)
            try:
                apply_event(CS, start, event, check_body=False)
            except EventError:
                applies = False
            else:
                applies = True
            assert event_applicable(CS, start, event, check_body=False) == applies

    def test_updates_sharing_a_key_apply_in_sequence(self):
        # A head-only key valued like the deleted key: the deletion goes
        # first, so the insertion lands on an empty key and B is lost.
        program = make_program()
        start = inst(rt(1, "ok", "b"))
        event = Event(program.rule("move"), {x: 1, y: 1})
        assert event_applicable(CS, start, event)
        assert apply_event(CS, start, event) == inst(rt(1, "ok", NULL))
