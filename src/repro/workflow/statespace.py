"""Bounded state-space exploration of workflow programs.

Breadth-first exploration of the reachable global instances of a
program, with optional canonical deduplication up to value isomorphism
(Lemma A.2 makes isomorphic states interchangeable).  Useful for
reachability questions ("can ``U`` become non-empty?"), deadlock
detection, and state-space statistics on small programs — the building
block the bounded decision procedures of Section 5 rely on implicitly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple as PyTuple

from ..obs.metrics import METRICS
from ..obs.trace import span
from ..runtime.budget import Budget, checkpoint
from .domain import FreshValueSource
from .engine import apply_event, apply_event_with_delta
from .errors import BudgetExceeded
from .enumerate import applicable_events
from .eventindex import ApplicableEventIndex
from .events import Event
from .instance import Instance
from .isomorphism import canonical_key
from .program import WorkflowProgram

# Fresh values minted during expansion start above this floor, offset by
# the visit index, so a state's fresh values depend only on its position
# in the visit order.
FRESH_BASE = 30_000

_STATES_VISITED = METRICS.counter(
    "repro_search_nodes_total",
    "Search nodes expanded, by search kind",
    labelnames=("search",),
).labels(search="statespace")
_EXPLORATIONS = METRICS.counter(
    "repro_statespace_explorations_total",
    "State-space explorations materialised, by outcome",
    labelnames=("outcome",),
)


@dataclass(frozen=True)
class ReachableState:
    """One explored state: the instance and a witness event path."""

    instance: Instance
    path: PyTuple[Event, ...]

    @property
    def depth(self) -> int:
        return len(self.path)


@dataclass
class ExplorationStats:
    """Aggregates of one exploration."""

    states_visited: int = 0
    states_deduplicated: int = 0
    transitions: int = 0
    max_depth_reached: int = 0
    deadlocks: int = 0


@dataclass
class ExplorationResult:
    """A materialised exploration, possibly budget-truncated.

    ``truncated=True`` marks a *partial* reachable set: the budget
    expired before the frontier was exhausted, and *states* holds the
    best-so-far prefix — never a silent wrong answer.
    """

    states: List[ReachableState]
    stats: ExplorationStats
    truncated: bool = False
    reason: Optional[str] = None

    def __len__(self) -> int:
        return len(self.states)


class StateSpaceExplorer:
    """Breadth-first exploration with canonical deduplication.

    ``dedup='exact'`` merges equal instances; ``dedup='isomorphic'``
    additionally merges instances equal up to renaming of values outside
    ``const(P)`` (sound by Lemma A.2); ``dedup='none'`` explores the raw
    tree.

    >>> # explorer = StateSpaceExplorer(program)
    >>> # hit = explorer.find(lambda inst: bool(inst.keys("U")), max_depth=6)
    """

    def __init__(
        self,
        program: WorkflowProgram,
        dedup: str = "isomorphic",
        initial: Optional[Instance] = None,
        budget: Optional[Budget] = None,
        use_event_index: bool = True,
    ) -> None:
        if dedup not in ("none", "exact", "isomorphic"):
            raise ValueError(f"unknown dedup mode {dedup!r}")
        self.program = program
        self.dedup = dedup
        self.initial = (
            initial if initial is not None else Instance.empty(program.schema.schema)
        )
        self.budget = budget
        self.use_event_index = use_event_index
        self.stats = ExplorationStats()

    def _signature(self, instance: Instance) -> object:
        if self.dedup == "exact":
            return instance
        return canonical_key(instance, self.program.constants())

    def iterate(
        self,
        max_depth: int,
        max_states: Optional[int] = None,
    ) -> Iterator[ReachableState]:
        """Yield reachable states breadth-first (the initial state first)."""
        self.stats = ExplorationStats()
        seen: Set[object] = set()
        queue: deque = deque()
        root = ReachableState(self.initial, ())
        root_index = (
            ApplicableEventIndex(self.program, self.initial)
            if self.use_event_index
            else None
        )
        queue.append((root, root_index))
        if self.dedup != "none":
            seen.add(self._signature(self.initial))
        fresh_base = FRESH_BASE
        while queue:
            state, index = queue.popleft()
            checkpoint(self.budget, depth=state.depth)
            _STATES_VISITED.inc()
            self.stats.states_visited += 1
            self.stats.max_depth_reached = max(
                self.stats.max_depth_reached, state.depth
            )
            yield state
            if max_states is not None and self.stats.states_visited >= max_states:
                return
            if state.depth >= max_depth:
                continue
            source = FreshValueSource(start=fresh_base + 64 * self.stats.states_visited)
            source.observe(self.program.constants())
            source.observe(state.instance.active_domain())
            successors = 0
            candidates = (
                index.events(source)
                if index is not None
                else applicable_events(self.program, state.instance, source)
            )
            for event in candidates:
                if index is not None:
                    successor, delta = apply_event_with_delta(
                        self.program.schema, state.instance, event, None, check_body=False
                    )
                else:
                    successor = apply_event(
                        self.program.schema, state.instance, event, None, check_body=False
                    )
                self.stats.transitions += 1
                successors += 1
                if self.dedup != "none":
                    signature = self._signature(successor)
                    if signature in seen:
                        self.stats.states_deduplicated += 1
                        continue
                    seen.add(signature)
                # Each child carries a derived index: an O(|delta|)
                # patch sharing cached valuations with the parent, so
                # only rules the event touched are re-evaluated later.
                child_index = (
                    index.advanced(delta, successor) if index is not None else None
                )
                queue.append(
                    (ReachableState(successor, state.path + (event,)), child_index)
                )
            if successors == 0:
                self.stats.deadlocks += 1

    def explore(
        self,
        max_depth: int,
        max_states: Optional[int] = None,
    ) -> ExplorationResult:
        """Materialise the reachable set, degrading gracefully on budget.

        Unlike :meth:`iterate`, a tripped budget does not propagate:
        the states visited so far are returned with ``truncated=True``
        and the budget's reason — the anytime form of exploration.
        """
        states: List[ReachableState] = []
        with span(
            "statespace_explore",
            dedup=self.dedup,
            max_depth=max_depth,
            max_states=max_states,
        ) as trace:
            try:
                for state in self.iterate(max_depth, max_states):
                    states.append(state)
            except BudgetExceeded as exc:
                _EXPLORATIONS.labels(outcome="truncated").inc()
                trace.set("states", len(states))
                trace.set("truncated", True)
                return ExplorationResult(
                    states, self.stats, truncated=True, reason=str(exc)
                )
            _EXPLORATIONS.labels(outcome="completed").inc()
            trace.set("states", len(states))
            trace.set("truncated", False)
        return ExplorationResult(states, self.stats)

    def find(
        self,
        predicate: Callable[[Instance], bool],
        max_depth: int,
        max_states: Optional[int] = None,
    ) -> Optional[ReachableState]:
        """The first reachable state satisfying *predicate*, if any."""
        with span("statespace_find", max_depth=max_depth) as trace:
            for state in self.iterate(max_depth, max_states):
                if predicate(state.instance):
                    trace.set("found_depth", state.depth)
                    return state
            trace.set("found_depth", None)
        return None

    def reachable_count(self, max_depth: int, max_states: Optional[int] = None) -> int:
        """How many (dedup-distinct) states are reachable within the bound.

        *max_states* is forwarded to :meth:`iterate`, so counting honours
        the same cap as ``iterate``/``explore`` instead of silently
        exceeding it.
        """
        return sum(1 for _ in self.iterate(max_depth, max_states))

    def deadlock_states(self, max_depth: int) -> List[ReachableState]:
        """States (within the bound) from which no event is applicable."""
        out: List[ReachableState] = []
        for state in self.iterate(max_depth):
            source = FreshValueSource(start=99_000)
            source.observe(self.program.constants())
            source.observe(state.instance.active_domain())
            if next(
                iter(applicable_events(self.program, state.instance, source)), None
            ) is None:
                out.append(state)
        return out


def fact_reachable(
    program: WorkflowProgram,
    relation: str,
    max_depth: int,
    dedup: str = "isomorphic",
    budget: Optional[Budget] = None,
    max_states: Optional[int] = None,
) -> Optional[ReachableState]:
    """A reachable state with a non-empty *relation*, if one exists in bound.

    The bounded form of the (undecidable) question (?) of Theorem 5.4.
    *max_states* caps the visited states exactly as in
    :meth:`StateSpaceExplorer.find`.

    >>> # witness = fact_reachable(pcp_workflow(instance), "U", 6)
    """
    explorer = StateSpaceExplorer(program, dedup=dedup, budget=budget)
    return explorer.find(
        lambda instance: bool(instance.keys(relation)), max_depth, max_states
    )
