"""Tests for scenario checking and the (hard) minimum/minimality problems."""

import pytest

from repro.core.scenarios import (
    greedy_scenario,
    has_scenario_of_size,
    is_minimal_scenario,
    is_scenario,
    minimum_scenario,
    scenario_within,
)
from repro.core.subruns import full_subsequence
from repro.workflow import Event, RunGenerator, execute


class TestIsScenario:
    def test_full_run_is_scenario(self, approval_run):
        assert is_scenario(approval_run, "applicant", range(4))

    def test_subrun_with_same_view(self, approval_run):
        assert is_scenario(approval_run, "applicant", [0, 3])
        assert is_scenario(approval_run, "applicant", [2, 3])

    def test_not_a_subrun(self, approval_run):
        assert not is_scenario(approval_run, "applicant", [3])

    def test_wrong_observations(self, approval_run):
        # e alone is a subrun but shows the applicant nothing.
        assert not is_scenario(approval_run, "applicant", [0])

    def test_scenario_depends_on_peer(self, approval_run):
        # For the cto, e and f are own events: any scenario must keep them.
        assert not is_scenario(approval_run, "cto", [2, 3])
        assert is_scenario(approval_run, "cto", range(4))

    def test_extra_visible_transition_rejected(self, approval_run):
        # e f g h for the ceo: ok appears, disappears, appears, approval.
        # Dropping f but keeping e and g would show ok twice... actually
        # g becomes a no-op; the view diverges. Check the machinery
        # notices.
        assert not is_scenario(approval_run, "ceo", [0, 2, 3])


class TestMinimumScenario:
    def test_example_42_minimum(self, approval_run):
        best = minimum_scenario(approval_run, "applicant")
        assert len(best) == 2  # either {e,h} or {g,h}
        assert is_scenario(approval_run, "applicant", best.indices)

    def test_minimum_with_bound(self, approval_run):
        assert has_scenario_of_size(approval_run, "applicant", 2)
        assert not has_scenario_of_size(approval_run, "applicant", 1)

    def test_minimum_without_bound_never_none(self, approval_run):
        for peer in ("cto", "ceo", "assistant", "applicant"):
            assert minimum_scenario(approval_run, peer) is not None

    def test_bound_below_own_events_is_none(self):
        # The observing peer's own events are in every scenario, so a
        # bound below their count is infeasible.
        from repro.workloads import churn_program

        run = RunGenerator(churn_program(), seed=3).random_run(8)
        assert any(event.peer == "auditor" for event in run.events)
        assert minimum_scenario(run, "auditor", max_depth=0) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_minimum_is_scenario_on_random_runs(self, hiring, seed):
        run = RunGenerator(hiring, seed=seed).random_run(10)
        best = minimum_scenario(run, "sue")
        assert is_scenario(run, "sue", best.indices)
        # No single-event-smaller scenario exists.
        assert not has_scenario_of_size(run, "sue", len(best) - 1)

    def test_empty_run(self, approval):
        run = execute(approval, [])
        best = minimum_scenario(run, "applicant")
        assert len(best) == 0


class TestScenarioWithin:
    def test_restricted_search(self, approval_run):
        # Within {g, h} the only scenario is {g, h} itself.
        found = scenario_within(approval_run, "applicant", [2, 3])
        assert found is not None and found.indices == {2, 3}

    def test_restricted_search_failure(self, approval_run):
        # Within {f, h} there is no scenario (h's body never holds).
        assert scenario_within(approval_run, "applicant", [1, 3]) is None


class TestMinimality:
    def test_minimal_scenarios(self, approval_run):
        assert is_minimal_scenario(approval_run, "applicant", [0, 3])
        assert is_minimal_scenario(approval_run, "applicant", [2, 3])

    def test_full_run_not_minimal(self, approval_run):
        assert not is_minimal_scenario(approval_run, "applicant", range(4))

    def test_non_scenario_not_minimal(self, approval_run):
        assert not is_minimal_scenario(approval_run, "applicant", [3])


class TestGreedy:
    def test_greedy_is_scenario(self, approval_run):
        result = greedy_scenario(approval_run, "applicant")
        assert is_scenario(approval_run, "applicant", result.indices)

    def test_greedy_shrinks(self, approval_run):
        result = greedy_scenario(approval_run, "applicant")
        assert len(result) < 4

    def test_greedy_is_one_minimal(self, approval_run):
        result = greedy_scenario(approval_run, "applicant")
        for index in result.indices:
            assert not is_scenario(
                approval_run, "applicant", result.indices - {index}
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_upper_bounds_minimum(self, hiring, seed):
        run = RunGenerator(hiring, seed=seed).random_run(10)
        greedy = greedy_scenario(run, "sue")
        best = minimum_scenario(run, "sue")
        assert len(best) <= len(greedy)
        assert is_scenario(run, "sue", greedy.indices)
