"""Scenarios: observationally equivalent subruns (Section 3).

A *scenario* of a run ``ρ`` at peer ``p`` is a subrun ``ρ̂`` with
``ρ̂@p = ρ@p``.  Finding a minimum-length scenario is NP-complete and
even testing minimality is coNP-complete (Theorems 3.3/3.4), so this
module provides:

* :func:`is_scenario` — the polynomial scenario check (replay and
  compare views);
* :func:`minimum_scenario` — an exact branch-and-bound search (worst
  case exponential, as the hardness results dictate);
* :func:`is_minimal_scenario` — exact minimality test via search for a
  strictly smaller scenario inside the candidate;
* :func:`greedy_scenario` — the polynomial greedy heuristic discussed
  after Theorem 3.3: repeatedly drop single events while the result
  remains a scenario.  The result is *1-minimal* (no single event can be
  removed) but not necessarily minimal.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple as PyTuple

from ..obs.metrics import METRICS
from ..obs.trace import span
from ..runtime.budget import Budget, checkpoint
from ..workflow.engine import apply_event_with_delta
from ..workflow.errors import BudgetExceeded, EventError
from ..workflow.events import Event
from ..workflow.instance import Instance
from ..workflow.runs import OMEGA, Run
from .subruns import EventSubsequence

_SEARCH_NODES = METRICS.counter(
    "repro_search_nodes_total",
    "Search nodes expanded, by search kind",
    labelnames=("search",),
).labels(search="scenario")
_SEARCHES = METRICS.counter(
    "repro_scenario_searches_total",
    "Branch-and-bound scenario searches run",
    labelnames=("outcome",),
)


def is_scenario(run: Run, peer: str, indices: Iterable[int]) -> bool:
    """True iff the subsequence at *indices* is a scenario of *run* at *peer*.

    Checks that the subsequence yields a subrun and that the subrun is
    observationally equivalent to the run for the peer.
    """
    subrun = EventSubsequence(run, indices).to_subrun()
    if subrun is None:
        return False
    return subrun.view(peer) == run.view(peer)


class _ScenarioSearch:
    """Branch-and-bound search for small scenarios.

    The search walks the run's events in order, deciding for each
    whether to include it in the candidate subrun.  It maintains the
    replayed instance and the position reached in the target observation
    sequence, pruning branches whose observations diverge from the
    target.  Events of the observing peer are forced to be included
    (their labels appear verbatim in the view).
    """

    def __init__(
        self,
        run: Run,
        peer: str,
        allowed: Optional[FrozenSet[int]] = None,
        max_depth: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> None:
        self.run = run
        self.peer = peer
        self.schema = run.program.schema
        self.allowed = allowed if allowed is not None else frozenset(range(len(run)))
        self.max_depth = max_depth if max_depth is not None else len(run)
        self.target = run.view(peer).observations()
        self.best: Optional[PyTuple[int, ...]] = None
        self.budget = budget
        self.truncated = False
        self.reason: Optional[str] = None
        self._seen: Dict[PyTuple[int, Instance, int], int] = {}

    def search(self, anytime: bool = False) -> Optional[PyTuple[int, ...]]:
        """Run the search; with *anytime* a tripped budget is absorbed.

        In anytime mode :class:`BudgetExceeded` marks the search
        ``truncated`` and the best candidate found so far is returned
        (None when none was reached yet) instead of propagating.
        """
        initial_view = self.schema.view_instance(self.run.initial, self.peer)
        with span(
            "scenario_search",
            peer=self.peer,
            run_events=len(self.run),
            max_depth=self.max_depth,
        ) as trace:
            try:
                self._explore(0, self.run.initial, initial_view, 0, [])
            except BudgetExceeded as exc:
                if not anytime:
                    _SEARCHES.labels(outcome="budget").inc()
                    raise
                self.truncated = True
                self.reason = str(exc)
            _SEARCHES.labels(
                outcome="truncated" if self.truncated else "completed"
            ).inc()
            trace.set("best", len(self.best) if self.best is not None else None)
            trace.set("truncated", self.truncated)
        return self.best

    def _bound(self) -> int:
        if self.best is not None:
            return min(self.max_depth, len(self.best) - 1)
        return self.max_depth

    def _explore(
        self,
        position: int,
        instance: Instance,
        view: Instance,
        matched: int,
        chosen: List[int],
    ) -> None:
        checkpoint(self.budget, depth=len(chosen))
        _SEARCH_NODES.inc()
        if len(chosen) > self._bound():
            return
        remaining_targets = len(self.target) - matched
        remaining_events = len(self.run) - position
        if remaining_targets > remaining_events:
            return  # not enough events left to produce the missing observations
        state = (position, instance, matched)
        prior = self._seen.get(state)
        if prior is not None and prior <= len(chosen):
            return
        self._seen[state] = len(chosen)
        if position == len(self.run):
            if matched == len(self.target):
                if self.best is None or len(chosen) < len(self.best):
                    self.best = tuple(chosen)
            return
        event = self.run.events[position]
        include_allowed = position in self.allowed
        must_include = include_allowed and event.peer == self.peer
        # Branch 1: include the event (if allowed).
        if include_allowed:
            self._try_include(position, instance, view, matched, chosen, event)
        # Branch 2: skip the event (not possible for the peer's own
        # events, whose labels must appear verbatim in the view).
        if not must_include:
            self._explore(position + 1, instance, view, matched, chosen)

    def _try_include(
        self,
        position: int,
        instance: Instance,
        view: Instance,
        matched: int,
        chosen: List[int],
        event: Event,
    ) -> None:
        try:
            successor, delta = apply_event_with_delta(self.schema, instance, event, None)
        except EventError:
            return
        # The observing peer's view is maintained incrementally: one
        # O(|delta|) patch per replayed event instead of recomputing
        # I@p from the whole instance (refresh returns the same object
        # when the transition is invisible to the peer).
        successor_view = delta.refresh_view(self.schema, self.peer, view)
        visible = event.peer == self.peer or successor_view is not view
        new_matched = matched
        if visible:
            if matched >= len(self.target):
                return  # extra visible transition: diverges from target
            label, view_instance = self.target[matched]
            expected_label = event if event.peer == self.peer else OMEGA
            if label != expected_label:
                return
            if successor_view != view_instance:
                return
            new_matched = matched + 1
        chosen.append(position)
        self._explore(position + 1, successor, successor_view, new_matched, chosen)
        chosen.pop()


def minimum_scenario(
    run: Run,
    peer: str,
    max_depth: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> Optional[EventSubsequence]:
    """A minimum-length scenario of *run* at *peer* (exact, exponential).

    Returns None when *max_depth* is given and no scenario of at most
    that many events exists.  Without *max_depth* the full run is itself
    a scenario, so the result is never None.  A *budget* bounds the
    exponential search and raises
    :class:`~repro.workflow.errors.BudgetExceeded` when it trips; for a
    graceful best-so-far answer use
    :func:`repro.runtime.supervisor.anytime_minimum_scenario`.
    """
    best = _ScenarioSearch(run, peer, max_depth=max_depth, budget=budget).search()
    if best is None:
        return None
    return EventSubsequence(run, best)


def has_scenario_of_size(
    run: Run, peer: str, size: int, budget: Optional[Budget] = None
) -> bool:
    """Decide the NP-complete bounded-scenario problem of Theorem 3.3."""
    return minimum_scenario(run, peer, max_depth=size, budget=budget) is not None


def scenario_within(
    run: Run,
    peer: str,
    allowed: Iterable[int],
    max_depth: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> Optional[EventSubsequence]:
    """A scenario using only events at *allowed* positions, if one exists."""
    best = _ScenarioSearch(
        run, peer, allowed=frozenset(allowed), max_depth=max_depth, budget=budget
    ).search()
    if best is None:
        return None
    return EventSubsequence(run, best)


def is_minimal_scenario(run: Run, peer: str, indices: Iterable[int]) -> bool:
    """Exact minimality test (the coNP-complete problem of Theorem 3.4).

    *indices* is minimal iff it is a scenario and no strict subsequence
    of it is one.
    """
    index_set = frozenset(indices)
    if not is_scenario(run, peer, index_set):
        return False
    smaller = scenario_within(run, peer, index_set, max_depth=len(index_set) - 1)
    return smaller is None


def greedy_scenario(run: Run, peer: str) -> EventSubsequence:
    """The polynomial greedy heuristic: drop events while still a scenario.

    Events are tried for removal from the latest to the earliest.  The
    result is a scenario from which no *single* event can be removed; by
    Theorem 3.4 certifying full minimality is coNP-hard, so the greedy
    result may still contain a strictly smaller scenario.
    """
    current: Set[int] = set(range(len(run)))
    forced = {i for i in current if run.events[i].peer == peer}
    for candidate in sorted(current - forced, reverse=True):
        attempt = current - {candidate}
        if is_scenario(run, peer, attempt):
            current = attempt
    return EventSubsequence(run, current)
