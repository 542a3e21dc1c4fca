"""Tests for supervised execution: retry, quarantine, anytime search."""

from __future__ import annotations

import pytest

from repro.core import is_scenario
from repro.runtime.budget import Budget
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.journal import recover_run
from repro.runtime.supervisor import (
    RetryPolicy,
    SupervisedRun,
    Supervisor,
    anytime_minimum_scenario,
    anytime_reachable_states,
)
from repro.storage import MemoryBackend, RecordJournal
from repro.workflow import Event, execute
from repro.workflow.statespace import StateSpaceExplorer


def approval_events(approval):
    return [Event(approval.rule(name), {}) for name in "efgh"]


def no_sleep_policy(**kwargs):
    return RetryPolicy(sleep=lambda _: None, **kwargs)


def memory_journal(snapshot_every=10):
    """A journal over a fresh memory store: ``(journal, store)``."""
    store = MemoryBackend().store("run")
    return RecordJournal(store, snapshot_every=snapshot_every), store


class TestRetry:
    def test_backoff_schedule(self):
        policy = RetryPolicy(initial_backoff=0.1, factor=2.0, max_backoff=0.3)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.3)  # capped
        assert policy.backoff(10) == pytest.approx(0.3)

    def test_transient_faults_absorbed(self, approval):
        """A fault that clears within max_attempts costs retries, not events."""
        plan = FaultPlan(transient_rate=1.0, transient_attempts=2)
        supervisor = Supervisor(
            approval,
            retry=no_sleep_policy(max_attempts=3),
            fault_injector=FaultInjector(plan),
        )
        result = supervisor.execute(approval_events(approval))
        assert result.applied == 4
        assert not result.quarantined
        assert not result.degraded

    def test_persistent_transient_quarantines(self, approval):
        """A transient fault outlasting the retry budget is set aside."""
        plan = FaultPlan(transient_rate=1.0, transient_attempts=10)
        supervisor = Supervisor(
            approval,
            retry=no_sleep_policy(max_attempts=2),
            fault_injector=FaultInjector(plan),
        )
        result = supervisor.execute(approval_events(approval))
        assert result.applied == 0
        assert len(result.quarantined) == 4
        assert all(q.attempts == 2 for q in result.quarantined)
        assert result.degraded

    def test_sleep_called_between_attempts(self, approval):
        naps = []
        plan = FaultPlan(transient_rate=1.0, transient_attempts=1)
        supervisor = Supervisor(
            approval,
            retry=RetryPolicy(max_attempts=3, initial_backoff=0.5, sleep=naps.append),
            fault_injector=FaultInjector(plan),
        )
        supervisor.execute(approval_events(approval)[:1])
        assert naps == [0.5]


class TestQuarantine:
    def test_poisoned_events_quarantined_with_diagnostic(self, approval):
        plan = FaultPlan(poison_rate=1.0)
        supervisor = Supervisor(
            approval,
            retry=no_sleep_policy(max_attempts=2),
            fault_injector=FaultInjector(plan),
        )
        result = supervisor.execute(approval_events(approval))
        assert result.applied == 0
        assert len(result.quarantined) == 4
        for quarantined in result.quarantined:
            assert "ChaseFailure" in quarantined.error
            assert quarantined.attempts == 2

    def test_quarantine_is_journaled(self, approval):
        plan = FaultPlan(poison_rate=1.0)
        journal, store = memory_journal()
        supervisor = Supervisor(
            approval,
            retry=no_sleep_policy(max_attempts=2),
            journal=journal,
            fault_injector=FaultInjector(plan),
        )
        supervisor.execute(approval_events(approval)[:2])
        kinds = [r["type"] for r in store.read()[0]]
        assert kinds == ["begin", "quarantine", "quarantine", "end"]

    def test_inapplicable_event_quarantined_without_injection(self, approval):
        """A genuinely inapplicable event (no faults injected) quarantines."""
        events = approval_events(approval)
        out_of_order = [events[3], events[0], events[1], events[2], events[3]]
        supervisor = Supervisor(approval, retry=no_sleep_policy(max_attempts=2))
        result = supervisor.execute(out_of_order)
        assert result.applied == 4
        assert len(result.quarantined) == 1
        assert result.quarantined[0].index == 0


class TestBudgetedExecution:
    def test_truncated_on_step_budget(self, approval):
        supervisor = Supervisor(approval, budget=Budget(max_steps=2))
        result = supervisor.execute(approval_events(approval))
        assert result.truncated
        assert result.applied == 2
        assert "step budget" in result.reason
        assert result.degraded

    def test_truncation_is_journaled(self, approval):
        journal, store = memory_journal()
        supervisor = Supervisor(approval, budget=Budget(max_steps=2), journal=journal)
        supervisor.execute(approval_events(approval))
        end = store.read()[0][-1]
        assert end["type"] == "end"
        assert end["status"] == "truncated"
        assert "step budget" in end["reason"]

    def test_unlimited_budget_is_noop(self, approval):
        result = Supervisor(approval, budget=Budget()).execute(
            approval_events(approval)
        )
        assert isinstance(result, SupervisedRun)
        assert result.applied == 4
        assert not result.degraded


class TestAnytimeScenario:
    def test_unbudgeted_search_is_exact(self, approval_run):
        result = anytime_minimum_scenario(approval_run, "applicant", Budget())
        assert not result.truncated
        assert is_scenario(approval_run, "applicant", result.value.indices)
        assert len(result.value.indices) == 2  # the known minimum

    def test_budget_killed_search_returns_valid_scenario(self, approval_run):
        """Acceptance: truncated search still returns a real scenario."""
        result = anytime_minimum_scenario(
            approval_run, "applicant", Budget(max_steps=3)
        )
        assert result.truncated
        assert result.reason is not None
        assert is_scenario(approval_run, "applicant", result.value.indices)

    def test_full_run_fallback(self, approval_run):
        """With no time to find anything, the full run is the scenario."""
        result = anytime_minimum_scenario(
            approval_run, "cto", Budget(max_steps=1)
        )
        assert result.truncated
        assert tuple(result.value.indices) == (0, 1, 2, 3)
        assert is_scenario(approval_run, "cto", result.value.indices)


class TestAnytimeExploration:
    def test_unbudgeted_matches_plain_exploration(self, approval):
        plain = list(StateSpaceExplorer(approval).iterate(3, None))
        anytime = anytime_reachable_states(approval, 3, Budget())
        assert not anytime.truncated
        assert len(anytime.value) == len(plain)

    def test_budgeted_exploration_is_partial(self, approval):
        full = anytime_reachable_states(approval, 3, Budget())
        partial = anytime_reachable_states(approval, 3, Budget(max_steps=2))
        assert partial.truncated
        assert 0 < len(partial.value) < len(full.value)


class TestJournalIntegration:
    def test_supervised_run_replayable(self, approval):
        """The journal of a clean supervised run replays to the same state."""
        journal, store = memory_journal(snapshot_every=2)
        supervisor = Supervisor(approval, journal=journal)
        result = supervisor.execute(approval_events(approval))
        recovered = recover_run(approval, store.read()[0])
        assert recovered.complete
        assert recovered.final_instance == result.run.final_instance

    def test_observer_journals_engine_runs(self, approval):
        """`execute(observer=...)` journals without a supervisor."""
        journal, store = memory_journal(snapshot_every=2)
        events = approval_events(approval)
        with journal as writer:
            initial = execute(approval, []).initial
            writer.begin(initial)
            run = execute(approval, events, observer=writer.observer())
            writer.end("completed")
        recovered = recover_run(approval, store.read()[0])
        assert recovered.complete
        assert recovered.events_replayed == 4
        assert recovered.final_instance == run.final_instance
