"""Tests for run execution, visibility and peer views of runs."""

import pytest

from repro.workflow.domain import FreshValue
from repro.workflow.errors import RunError
from repro.workflow.events import Event
from repro.workflow.instance import Instance
from repro.workflow.runs import OMEGA, execute, replay
from repro.workloads.paper_examples import approval_program, hiring_program


def ev(program, name, **valuation):
    from repro.workflow.queries import Var

    return Event(program.rule(name), {Var(k): v for k, v in valuation.items()})


class TestExecution:
    def test_simple_run(self, approval):
        run = execute(approval, [ev(approval, "e"), ev(approval, "h")])
        assert len(run) == 2
        assert run.final_instance.has_key("approval", 0)

    def test_inapplicable_event_raises(self, approval):
        with pytest.raises(RunError):
            execute(approval, [ev(approval, "h")])  # ok(0) does not hold yet

    def test_instances_track_events(self, approval_run):
        assert approval_run.instance_after(0).has_key("ok", 0)
        assert not approval_run.instance_after(1).has_key("ok", 0)
        assert approval_run.instance_before(0).is_empty()
        assert approval_run.instance_before(2) == approval_run.instance_after(1)

    def test_freshness_enforced_across_run(self, hiring):
        clear = hiring.rule("clear")
        first = ev(hiring, "clear", x=FreshValue(0))
        duplicate = ev(hiring, "clear", x=FreshValue(0))
        with pytest.raises(RunError):
            execute(hiring, [first, duplicate])

    def test_fresh_value_must_avoid_constants(self, approval):
        # Rule e inserts the constant key 0; a head-only variable cannot
        # take the value 0 afterwards, since 0 is in const(P).
        hiring = hiring_program()
        with pytest.raises(RunError):
            execute(hiring, [ev(hiring, "clear", x="sue"),
                             ev(hiring, "clear", x="sue")])

    def test_a_deleted_value_stays_used(self):
        from repro.workloads import get_family

        program = get_family("procurement").program()
        request = ev(program, "request", r="req-1")
        withdraw = ev(program, "withdraw", x="req-1")
        assert len(execute(program, [request, withdraw])) == 2
        with pytest.raises(RunError, match="not globally fresh"):
            execute(program, [request, withdraw, request])
        assert len(execute(program, [request, withdraw, request], check_freshness=False)) == 3

    def test_execute_scans_only_the_initial_instance(self, monkeypatch):
        """Freshness is kept from each event's head-only values: one
        ``active_domain`` call per run, however long, and none when
        freshness is not checked."""
        from repro.workloads import get_family

        family = get_family("cicd")
        program = family.program()
        run = family.run(seed=1, steps=600, program=program)
        assert len(run) == 600
        calls = []
        original = Instance.active_domain

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Instance, "active_domain", counting)
        assert execute(program, run.events).final_instance == run.final_instance
        assert len(calls) == 1
        calls.clear()
        execute(program, run.events, check_freshness=False)
        assert calls == []

    def test_replay_returns_none_on_failure(self, approval):
        assert replay(approval, [ev(approval, "h")]) is None
        assert replay(approval, [ev(approval, "e")]) is not None

    def test_run_from_initial_instance(self, approval):
        start = execute(approval, [ev(approval, "e")]).final_instance
        run = execute(approval, [ev(approval, "h")], initial=start)
        assert run.initial == start
        assert run.final_instance.has_key("approval", 0)


class TestVisibility:
    def test_own_events_always_visible(self, approval_run):
        # Events e,f,g belong to cto/ceo; h belongs to assistant.
        assert approval_run.visible_at("cto", 0)
        assert approval_run.visible_at("assistant", 3)

    def test_side_effect_visibility(self, approval_run):
        # ceo sees ok, so cto's insert (event 0) is visible at ceo.
        assert approval_run.visible_at("ceo", 0)
        # applicant sees only approval: events 0-2 are silent.
        assert not approval_run.visible_at("applicant", 0)
        assert not approval_run.visible_at("applicant", 1)
        assert not approval_run.visible_at("applicant", 2)
        assert approval_run.visible_at("applicant", 3)

    def test_no_op_events_of_others_invisible(self, approval):
        # Re-inserting ok(0) by ceo after cto already inserted it does
        # not change anyone's view, so it is invisible at cto... but
        # visible at ceo (own event).
        run = execute(approval, [ev(approval, "e"), ev(approval, "g")])
        assert not run.visible_at("cto", 1)
        assert run.visible_at("ceo", 1)

    def test_visible_indices(self, approval_run):
        assert approval_run.visible_indices("applicant") == (3,)
        assert approval_run.silent_indices("applicant") == (0, 1, 2)


class TestRunView:
    def test_view_labels(self, approval_run):
        view = approval_run.view("assistant")
        labels = [step.label for step in view]
        # Events e, f, g are other peers' but visible (ok changes);
        # h is the assistant's own event.
        assert labels[:3] == [OMEGA, OMEGA, OMEGA]
        assert labels[3] == approval_run.events[3]

    def test_view_instances_are_view_schema(self, approval_run):
        view = approval_run.view("applicant")
        assert len(view) == 1
        step = view.steps[0]
        assert step.instance.has_key("approval@applicant", 0)

    def test_view_equality(self, approval):
        run_a = execute(approval, [ev(approval, "e"), ev(approval, "h")])
        run_b = execute(approval, [ev(approval, "g"), ev(approval, "h")])
        # For the applicant both runs show a single ω-transition adding
        # approval(0): observationally equivalent.
        assert run_a.view("applicant") == run_b.view("applicant")
        # For the cto they differ (e is cto's own event).
        assert run_a.view("cto") != run_b.view("cto")

    def test_observations_exclude_indices(self, approval_run):
        observations = approval_run.view("applicant").observations()
        assert len(observations) == 1
        label, instance = observations[0]
        assert label is OMEGA


class TestRunAccessors:
    def test_active_domain(self, approval_run):
        assert 0 in approval_run.active_domain()

    def test_new_values(self, hiring):
        run = execute(hiring, [ev(hiring, "clear", x=FreshValue(0))])
        assert FreshValue(0) in run.new_values()

    def test_event_sequence_identity(self, approval_run):
        assert approval_run.event_sequence() == approval_run.events
