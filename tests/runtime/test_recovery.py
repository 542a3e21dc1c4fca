"""Crash-recovery equivalence: a crashed-and-recovered execution must
reach the same final instance as an uninterrupted one."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.faults import CrashFault, FaultInjector, FaultPlan
from repro.runtime.journal import recover_run
from repro.runtime.supervisor import Supervisor
from repro.storage import MemoryBackend, RecordJournal
from repro.workflow import Event, RunGenerator, execute, instances_isomorphic
from repro.workloads import paper_examples


def run_with_recovery(program, events, plan, initial=None, max_crashes=10):
    """Drive *events* through supervised execution, recovering from the
    journal after every injected crash, until the run completes.

    Models the real deployment loop: the process dies (in-memory state
    is abandoned), a fresh process reads the journal, re-validates the
    prefix, and resumes from where the journal left off.
    """
    injector = FaultInjector(plan)
    store = MemoryBackend().store("run")
    supervisor = Supervisor(
        program, journal=RecordJournal(store), fault_injector=injector
    )
    crashes = 0
    applied_before = 0  # events applied in earlier (crashed) segments
    remaining = list(events)
    try:
        result = supervisor.execute(remaining, initial=initial)
        return result, crashes, applied_before + result.applied
    except CrashFault:
        crashes += 1
    while crashes <= max_crashes:
        # The journal's store survives the crash; everything else is
        # rebuilt.
        recovered = recover_run(program, store.read()[0])
        assert recovered.status == "crashed"
        applied_before += recovered.events_replayed
        remaining = remaining[recovered.events_replayed :]
        store = MemoryBackend().store("run")
        supervisor = Supervisor(
            program, journal=RecordJournal(store), fault_injector=injector
        )
        try:
            result = supervisor.execute(remaining, initial=recovered.final_instance)
        except CrashFault:
            crashes += 1
            continue
        return result, crashes, applied_before + result.applied
    raise AssertionError("crash loop did not converge")


class TestDeterministicCrash:
    @pytest.mark.parametrize("crash_at", [0, 1, 2, 3])
    def test_crash_and_resume_matches_uninterrupted(self, approval, crash_at):
        events = [Event(approval.rule(name), {}) for name in "efgh"]
        baseline = execute(approval, events)
        plan = FaultPlan(crash_at_event=crash_at)

        injector = FaultInjector(plan)
        store = MemoryBackend().store("run")
        supervisor = Supervisor(
            approval, journal=RecordJournal(store), fault_injector=injector
        )
        with pytest.raises(CrashFault):
            supervisor.execute(events)

        recovered = recover_run(approval, store.read()[0])
        assert recovered.status == "crashed"
        assert not recovered.complete
        assert recovered.events_replayed == crash_at

        resumed = execute(
            approval,
            events[crash_at:],
            initial=recovered.final_instance,
            check_freshness=False,
        )
        assert resumed.final_instance == baseline.final_instance

    def test_crash_past_end_never_fires(self, approval):
        events = [Event(approval.rule(name), {}) for name in "efgh"]
        plan = FaultPlan(crash_at_event=99)
        result = Supervisor(approval, fault_injector=FaultInjector(plan)).execute(events)
        assert result.applied == 4
        assert not result.degraded

    def test_restarted_process_does_not_recrash(self, approval):
        """A crash fires once per index: the recovery attempt proceeds."""
        events = [Event(approval.rule(name), {}) for name in "efgh"]
        plan = FaultPlan(crash_at_event=2)
        result, crashes, applied = run_with_recovery(approval, events, plan)
        assert crashes == 1
        assert applied == 4
        assert result.applied == 2  # the two events after the crash point
        assert not result.degraded


class TestSeededCrashRecovery:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500), steps=st.integers(1, 8))
    def test_recovery_equivalence_on_random_runs(self, seed, steps):
        """Seeded fault injection: recovered == uninterrupted, always."""
        program = paper_examples.hiring_program()
        baseline = RunGenerator(program, seed=seed).random_run(steps)
        if not baseline.events:
            return
        plan = FaultPlan(seed=seed, crash_rate=0.4)
        result, crashes, applied = run_with_recovery(program, baseline.events, plan)
        assert applied == len(baseline.events)
        assert not result.quarantined
        assert result.run.final_instance == baseline.final_instance
        assert instances_isomorphic(
            result.run.final_instance, baseline.final_instance
        )
        # The schedule is deterministic: rerunning crashes identically.
        _, crashes_again, _ = run_with_recovery(program, baseline.events, plan)
        assert crashes_again == crashes
