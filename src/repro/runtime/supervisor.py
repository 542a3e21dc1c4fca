"""Supervised execution: retry, quarantine, and anytime degradation.

The supervisor wraps the event-application loop of the engine with the
resilience policies a long-lived service needs:

* **bounded retry with exponential backoff** for transient failures
  (classified by exception type — by default the injectable
  :class:`~repro.runtime.faults.TransientFault`);
* **quarantine of poisoned events**: an event that *repeatedly* raises
  a deterministic rejection (:class:`~repro.workflow.errors.EventError`
  — covering :class:`~repro.workflow.errors.UpdateNotApplicable` — or
  :class:`~repro.workflow.errors.ChaseFailure`) is set aside with a
  diagnostic (and journaled) instead of aborting the run;
* **budget-aware truncation**: when the run's budget expires the
  supervisor stops cleanly, marks the result ``truncated=True`` and
  journals the fact — never a silent wrong answer;
* **journaling**: every applied event is journaled before the next is
  attempted, so a crash (a :class:`~repro.runtime.faults.CrashFault`
  or a real one) leaves a prefix recoverable with
  :func:`~repro.runtime.journal.recover_run`.

The module also hosts the *anytime* entry points for the expensive
searches: they run under a budget and, when killed, return an explicit
best-so-far :class:`~repro.runtime.budget.AnytimeResult` instead of
propagating :class:`~repro.workflow.errors.BudgetExceeded`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Type

from ..obs.metrics import METRICS
from ..obs.trace import span
from ..workflow.engine import apply_event
from ..workflow.errors import (
    BudgetExceeded,
    ChaseFailure,
    EventError,
)
from ..workflow.events import Event
from ..workflow.instance import Instance
from ..workflow.program import WorkflowProgram
from ..workflow.runs import Run
from ..workflow.statespace import ReachableState, StateSpaceExplorer
from .budget import AnytimeResult, Budget, checkpoint
from .faults import CrashFault, FaultInjector, TransientFault

if TYPE_CHECKING:  # pragma: no cover - the storage layer imports the runtime
    from ..storage.backend import RecordJournal

__all__ = [
    "QuarantinedEvent",
    "RetryPolicy",
    "SupervisedRun",
    "Supervisor",
    "anytime_minimum_scenario",
    "anytime_reachable_states",
]

_RETRIES = METRICS.counter(
    "repro_supervisor_retries_total",
    "Event applications retried by the supervisor, by failure class",
    labelnames=("failure",),
)
_QUARANTINES = METRICS.counter(
    "repro_supervisor_quarantines_total",
    "Events quarantined as poisoned by the supervisor",
)
_SUPERVISED_RUNS = METRICS.counter(
    "repro_supervisor_runs_total",
    "Supervised executions, by outcome",
    labelnames=("outcome",),
)

#: Deterministic failures that quarantine an event after retries.
#: EventError covers UpdateNotApplicable, FreshnessViolation and body
#: rejections — all pure functions of (instance, event), so retrying
#: cannot help and the event is set aside instead of aborting the run.
POISON_ERRORS: Tuple[Type[BaseException], ...] = (EventError, ChaseFailure)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff.

    ``sleep`` is injectable so tests (and simulations) run without
    real delays; backoff for attempt *n* (1-based) is
    ``min(initial_backoff * factor**(n-1), max_backoff)``.
    """

    max_attempts: int = 3
    initial_backoff: float = 0.01
    factor: float = 2.0
    max_backoff: float = 1.0
    sleep: Callable[[float], None] = time.sleep

    def backoff(self, attempt: int) -> float:
        return min(self.initial_backoff * self.factor ** (attempt - 1), self.max_backoff)


@dataclass(frozen=True)
class QuarantinedEvent:
    """An event set aside as poisoned, with its diagnostic."""

    index: int
    event: Event
    attempts: int
    error: str


@dataclass
class SupervisedRun:
    """The outcome of a supervised execution.

    *run* contains the events that applied successfully (in order);
    *quarantined* the poisoned ones that were set aside; ``truncated``
    is True when the budget expired before all events were attempted.
    """

    run: Run
    quarantined: List[QuarantinedEvent] = field(default_factory=list)
    truncated: bool = False
    reason: Optional[str] = None

    @property
    def applied(self) -> int:
        return len(self.run)

    @property
    def degraded(self) -> bool:
        return self.truncated or bool(self.quarantined)


class Supervisor:
    """A supervised event-application loop over one program.

    >>> # journal = RecordJournal(SegmentBackend("journals").store("run"))
    >>> # supervisor = Supervisor(program, journal=journal)
    >>> # result = supervisor.execute(events)
    >>> # result.run, result.quarantined, result.truncated
    """

    def __init__(
        self,
        program: WorkflowProgram,
        retry: RetryPolicy = RetryPolicy(),
        budget: Optional[Budget] = None,
        journal: Optional["RecordJournal"] = None,
        fault_injector: Optional[FaultInjector] = None,
        transient_errors: Tuple[Type[BaseException], ...] = (TransientFault,),
    ) -> None:
        self.program = program
        self.retry = retry
        self.budget = budget
        self.journal = journal
        self.fault_injector = fault_injector
        self.transient_errors = transient_errors

    # ------------------------------------------------------------------
    # One event, with retry
    # ------------------------------------------------------------------

    def _apply_with_retry(
        self, index: int, event: Event, instance: Instance
    ) -> Tuple[Optional[Instance], int, Optional[str]]:
        """Apply one event; returns (successor|None, attempts, diagnostic).

        A ``None`` successor means the event is poisoned (quarantine).
        :class:`CrashFault` and unexpected errors propagate.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                if self.fault_injector is not None:
                    self.fault_injector.before_apply(index, event)
                return apply_event(self.program.schema, instance, event, None), attempt, None
            except CrashFault:
                raise
            except self.transient_errors as exc:
                if attempt >= self.retry.max_attempts:
                    return None, attempt, f"transient fault persisted: {exc}"
                _RETRIES.labels(failure="transient").inc()
                self.retry.sleep(self.retry.backoff(attempt))
            except POISON_ERRORS as exc:
                if attempt >= self.retry.max_attempts:
                    return None, attempt, f"{type(exc).__name__}: {exc}"
                _RETRIES.labels(failure="poison").inc()
                self.retry.sleep(self.retry.backoff(attempt))

    # ------------------------------------------------------------------
    # The supervised loop
    # ------------------------------------------------------------------

    def execute(
        self, events: Sequence[Event], initial: Optional[Instance] = None
    ) -> SupervisedRun:
        """Apply *events* under supervision and return the report.

        Each applied event is journaled before the next is attempted.
        On a :class:`CrashFault` the (partial) journal is closed with
        status ``crashed`` and the fault propagates — recovery is the
        caller's move, via :func:`~repro.runtime.journal.recover_run`.
        """
        start = (
            initial if initial is not None else Instance.empty(self.program.schema.schema)
        )
        instance = start
        if self.journal is not None:
            self.journal.begin(instance)
        applied_events: List[Event] = []
        instances: List[Instance] = []
        quarantined: List[QuarantinedEvent] = []
        truncated = False
        reason: Optional[str] = None
        with span("supervised_execute", events=len(events)) as trace:
            try:
                for index, event in enumerate(events):
                    try:
                        checkpoint(self.budget)
                    except BudgetExceeded as exc:
                        truncated = True
                        reason = str(exc)
                        break
                    successor, attempts, error = self._apply_with_retry(
                        index, event, instance
                    )
                    if successor is None:
                        diagnostic = error or "event failed"
                        quarantined.append(
                            QuarantinedEvent(index, event, attempts, diagnostic)
                        )
                        _QUARANTINES.inc()
                        if self.journal is not None:
                            self.journal.quarantine(index, event, diagnostic, attempts)
                        continue
                    instance = successor
                    applied_events.append(event)
                    instances.append(instance)
                    if self.journal is not None:
                        self.journal.record_event(index, event, instance)
            except CrashFault:
                if self.journal is not None:
                    self.journal.end("crashed")
                _SUPERVISED_RUNS.labels(outcome="crashed").inc()
                raise
            if self.journal is not None:
                self.journal.end("truncated" if truncated else "completed", reason)
            outcome = "truncated" if truncated else "completed"
            _SUPERVISED_RUNS.labels(outcome=outcome).inc()
            trace.set("applied", len(applied_events))
            trace.set("quarantined", len(quarantined))
            trace.set("outcome", outcome)
        run = Run(self.program, start, applied_events, instances)
        return SupervisedRun(run, quarantined, truncated, reason)


# ----------------------------------------------------------------------
# Anytime (graceful-degradation) search entry points
# ----------------------------------------------------------------------


def anytime_minimum_scenario(
    run: Run,
    peer: str,
    budget: Budget,
    max_depth: Optional[int] = None,
) -> AnytimeResult:
    """Minimum-scenario search that degrades gracefully under a budget.

    Runs the exact branch-and-bound search of
    :func:`repro.core.scenarios.minimum_scenario` under *budget*; when
    the budget kills the search, returns the best (smallest) scenario
    found so far — falling back to the full run, which is always a
    scenario of itself — flagged ``truncated=True``.  The value is an
    :class:`~repro.core.subruns.EventSubsequence` that always satisfies
    :func:`repro.core.scenarios.is_scenario`.

    >>> # result = anytime_minimum_scenario(run, "sue", Budget(wall_seconds=1.0))
    >>> # result.value, result.truncated
    """
    from ..core.scenarios import _ScenarioSearch
    from ..core.subruns import EventSubsequence

    search = _ScenarioSearch(run, peer, max_depth=max_depth, budget=budget)
    best = search.search(anytime=True)
    if best is None:
        # No scenario within max_depth found before truncation (or none
        # exists); the full run is the universal fallback scenario.
        value = EventSubsequence(run, tuple(range(len(run))))
    else:
        value = EventSubsequence(run, best)
    return AnytimeResult(value, truncated=search.truncated, reason=search.reason)


def anytime_reachable_states(
    program: WorkflowProgram,
    max_depth: int,
    budget: Budget,
    max_states: Optional[int] = None,
    dedup: str = "isomorphic",
    initial: Optional[Instance] = None,
) -> AnytimeResult:
    """Budgeted reachable-set exploration returning a partial set if killed.

    The value is the list of :class:`ReachableState` visited before the
    budget expired; ``truncated=True`` marks a partial reachable set.
    """
    explorer = StateSpaceExplorer(program, dedup=dedup, initial=initial, budget=budget)
    states: List[ReachableState] = []
    truncated = False
    reason: Optional[str] = None
    try:
        for state in explorer.iterate(max_depth, max_states):
            states.append(state)
    except BudgetExceeded as exc:
        truncated = True
        reason = str(exc)
    return AnytimeResult(states, truncated=truncated, reason=reason)
