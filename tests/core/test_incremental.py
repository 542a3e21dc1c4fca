"""Differential tests: incremental maintenance vs from-scratch closure."""

import pytest

from repro.core.explain import explain_event
from repro.core.faithful import minimal_faithful_scenario
from repro.core.incremental import IncrementalExplainer
from repro.workflow import Event, Instance, RunGenerator, execute
from repro.workflow.domain import NULL
from repro.workflow.engine import apply_event_with_delta
from repro.workflow.errors import EventError
from repro.workflow.queries import Var
from repro.workflow.tuples import Tuple
from repro.workloads.generators import (
    churn_program,
    profile_program,
    random_propositional_program,
)


def check_against_scratch(program, peer, events, initial=None):
    """Feed events incrementally and compare every prefix with scratch."""
    explainer = IncrementalExplainer(program, peer, initial=initial)
    for count, event in enumerate(events, start=1):
        explainer.extend(event)
        run = execute(program, events[:count], initial=initial, check_freshness=False)
        expected = minimal_faithful_scenario(run, peer).indices
        assert explainer.minimal_scenario() == expected, (
            f"scenario mismatch after {count} events"
        )
        for position in range(count):
            assert explainer.explanation_of(position) == explain_event(
                run, peer, position
            ), f"closure mismatch for event {position} after {count} events"


class TestExample42:
    def test_matches_scratch(self, approval):
        events = [Event(approval.rule(name), {}) for name in "efgh"]
        check_against_scratch(approval, "applicant", events)

    def test_scenario_after_each_event(self, approval):
        events = [Event(approval.rule(name), {}) for name in "efgh"]
        explainer = IncrementalExplainer(approval, "applicant")
        snapshots = []
        for event in events:
            explainer.extend(event)
            snapshots.append(explainer.minimal_scenario())
        assert snapshots == [(), (), (), (2, 3)]

    def test_rejects_inapplicable_event(self, approval):
        explainer = IncrementalExplainer(approval, "applicant")
        with pytest.raises(EventError):
            explainer.extend(Event(approval.rule("h"), {}))
        assert len(explainer) == 0  # state unchanged

    def test_run_reconstruction(self, approval):
        events = [Event(approval.rule(name), {}) for name in "efgh"]
        explainer = IncrementalExplainer(approval, "applicant")
        for event in events:
            explainer.extend(event)
        run = explainer.run()
        assert len(run) == 4
        assert list(run.events) == events
        assert run.final_instance == execute(approval, events).final_instance


class TestLifecycleClosureUpdates:
    """The delicate case: a new event closes lifecycles older closures touch."""

    def test_deletion_extends_existing_closures(self, approval):
        # e h ... then f: deleting ok(0) closes the lifecycle [0, ...]
        # that both e's and h's closures touch, so all of them must gain f.
        events = [Event(approval.rule(n), {}) for n in ("e", "h", "f")]
        check_against_scratch(approval, "applicant", events)

    def test_churn_workload(self):
        program = churn_program()
        run = RunGenerator(program, seed=11).random_run(25)
        check_against_scratch(program, "observer", list(run.events))


class TestRandomizedDifferential:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_propositional(self, seed):
        program = random_propositional_program(6, 12, seed=seed)
        run = RunGenerator(program, seed=seed).random_run(20)
        check_against_scratch(program, "observer", list(run.events))

    @pytest.mark.parametrize("seed", range(5))
    def test_hiring_runs(self, hiring, seed):
        run = RunGenerator(hiring, seed=seed).random_run(15)
        check_against_scratch(hiring, "sue", list(run.events))

    def test_profile_attribute_modifications(self):
        program = profile_program()
        run = RunGenerator(program, seed=5).random_run(15)
        check_against_scratch(program, "observer", list(run.events))


class TestInitialInstance:
    def test_preexisting_tuples(self, approval):
        from repro.workflow.tuples import Tuple

        start = Instance.from_tuples(
            approval.schema.schema, {"ok": [Tuple(("K",), (0,))]}
        )
        events = [Event(approval.rule(n), {}) for n in ("h", "f")]
        check_against_scratch(approval, "applicant", events, initial=start)


def _event(program, rule, **values):
    return Event(program.rule(rule), {Var(name): value for name, value in values.items()})


class TestDeltaDrivenExtension:
    """Runs exercising each reading ``extend`` takes off the event's delta."""

    def test_deleted_key_reinserted_reopens_lifecycle(self):
        program = churn_program()
        events = [
            _event(program, "make", x=1),
            _event(program, "audit", a="a1", x=1),
            _event(program, "kill", x=1),
            _event(program, "make", x=1),
            _event(program, "audit", a="a2", x=1),
            _event(program, "kill", x=1),
            _event(program, "make", x=1),
        ]
        check_against_scratch(program, "observer", events)

    def test_chase_merge_neither_opens_nor_closes(self):
        # set_email/set_phone merge into the key create opened: update
        # deltas, one of them (email) projected away from the observer.
        program = profile_program()
        events = [
            _event(program, "create", x=1),
            _event(program, "create", x=2),
            _event(program, "set_email", x=1),
            _event(program, "set_phone", x=2),
            _event(program, "set_phone", x=1),
            _event(program, "notify", x=1),
        ]
        run = execute(program, events, check_freshness=False)
        _, delta = apply_event_with_delta(program.schema, run.instance_before(2), events[2])
        assert delta.touched() == (("P", 1, "update"),)
        check_against_scratch(program, "observer", events)

    def test_tuples_in_initial_instance(self):
        program = churn_program()
        start = Instance.from_tuples(
            program.schema.schema,
            {
                "Obj": [Tuple(("K",), (1,)), Tuple(("K",), (2,))],
                "Audit": [Tuple(("K", "obj"), ("a0", 1))],
            },
        )
        events = [
            _event(program, "audit", a="a1", x=2),
            _event(program, "kill", x=1),
            _event(program, "make", x=1),
            _event(program, "audit", a="a2", x=1),
            _event(program, "kill", x=2),
        ]
        check_against_scratch(program, "observer", events, initial=start)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_runs_from_initial_instance(self, seed):
        program = profile_program()
        start = Instance.from_tuples(
            program.schema.schema,
            {"P": [Tuple(("K", "email", "phone"), (k, NULL, NULL)) for k in ("p", "q")]},
        )
        run = RunGenerator(program, seed=seed).random_run(12, initial=start)
        check_against_scratch(program, "observer", list(run.events), initial=start)

    def test_observer_sees_none_of_the_events(self):
        program = churn_program()
        events = [
            _event(program, "make", x=1),
            _event(program, "make", x=2),
            _event(program, "kill", x=1),
        ]
        check_against_scratch(program, "observer", events)
        explainer = IncrementalExplainer(program, "observer")
        for event in events:
            explainer.extend(event)
        assert explainer.visible_indices() == ()
        assert explainer.minimal_scenario() == ()
