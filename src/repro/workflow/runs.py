"""Runs of workflow programs and their peer views.

A run of a program ``P`` is a finite sequence ``ρ = (e_i, I_i)`` of
events and instances with ``∅ ⊢_{e_0} I_0`` and ``I_{i-1} ⊢_{e_i} I_i``,
where head-only variables are instantiated with globally fresh values.

The *p-view* ``ρ@p`` of a run (Definition 3.1) replaces events of other
peers with the symbol ``ω`` and drops transitions invisible at ``p``; an
event is visible at ``p`` when ``p`` performs it or it changes ``p``'s
view instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple as PyTuple, Union

from .engine import apply_event
from .errors import EventError, RunError
from .events import Event
from .instance import Instance
from .program import WorkflowProgram
from .views import CollaborativeSchema


class _Omega:
    """The symbol ``ω`` standing for "world" in peer views of runs."""

    _instance = None

    def __new__(cls) -> "_Omega":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ω"


#: The "world" marker used in run views for events of other peers.
OMEGA = _Omega()


@dataclass(frozen=True)
class ViewStep:
    """One transition of a run view ``ρ@p``.

    ``label`` is the event itself when the observing peer performed it,
    and :data:`OMEGA` otherwise; ``instance`` is the view instance
    ``I_i@p`` after the transition; ``index`` is the position of the
    underlying event in the full run.
    """

    index: int
    label: Union[Event, _Omega]
    instance: Instance


class RunView:
    """The view ``ρ@p`` of a run at a peer: the visible transitions."""

    def __init__(self, peer: str, steps: Sequence[ViewStep]) -> None:
        self.peer = peer
        self.steps: PyTuple[ViewStep, ...] = tuple(steps)

    def observations(self) -> PyTuple[PyTuple[Union[Event, _Omega], Instance], ...]:
        """The observation sequence ``(e_i@p, I_i@p)`` without indices.

        Two run views are observationally equivalent iff their
        observation sequences are equal; this is what scenario checking
        compares.
        """
        return tuple((step.label, step.instance) for step in self.steps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RunView) and self.observations() == other.observations()

    def __hash__(self) -> int:
        return hash(self.observations())

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[ViewStep]:
        return iter(self.steps)

    def __repr__(self) -> str:
        lines = [f"RunView@{self.peer} ({len(self.steps)} visible transitions)"]
        for step in self.steps:
            lines.append(f"  [{step.index}] {step.label!r} -> {step.instance!r}")
        return "\n".join(lines)


class Run:
    """A run ``ρ`` of a workflow program.

    ``instances[i]`` is the instance ``I_i`` reached *after* event
    ``events[i]``; ``initial`` is the instance the run starts from (the
    empty instance by default).
    """

    def __init__(
        self,
        program: WorkflowProgram,
        initial: Instance,
        events: Sequence[Event],
        instances: Sequence[Instance],
    ) -> None:
        if len(events) != len(instances):
            raise RunError("a run needs exactly one instance per event")
        self.program = program
        self.initial = initial
        self.events: PyTuple[Event, ...] = tuple(events)
        self.instances: PyTuple[Instance, ...] = tuple(instances)
        # Runs are immutable, so peer views of their instances are
        # memoised: visibility tests and view construction would
        # otherwise recompute the same projections quadratically often.
        self._view_cache: Dict[PyTuple[str, int], Instance] = {}

    # ------------------------------------------------------------------
    # Basic access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    @property
    def final_instance(self) -> Instance:
        return self.instances[-1] if self.instances else self.initial

    def instance_before(self, i: int) -> Instance:
        """The instance ``I_{i-1}`` the i-th event fires at."""
        return self.instances[i - 1] if i > 0 else self.initial

    def instance_after(self, i: int) -> Instance:
        return self.instances[i]

    def event_sequence(self) -> PyTuple[Event, ...]:
        """``e(ρ)``: the event sequence, which determines the run."""
        return self.events

    def active_domain(self) -> Set[object]:
        """``adom(ρ)``: all values occurring in the run's instances."""
        values: Set[object] = set(self.initial.active_domain())
        for instance in self.instances:
            values.update(instance.active_domain())
        for event in self.events:
            values.update(event.values())
        return values

    def new_values(self) -> Set[object]:
        """``new(ρ)``: values created fresh by some event of the run."""
        values: Set[object] = set()
        for event in self.events:
            values.update(event.new_values())
        return values

    # ------------------------------------------------------------------
    # Visibility and views
    # ------------------------------------------------------------------

    def view_instance_at(self, peer: str, i: int) -> Instance:
        """The (memoised) view ``I_i@peer``; ``i = -1`` is the initial instance."""
        key = (peer, i)
        cached = self._view_cache.get(key)
        if cached is None:
            instance = self.initial if i < 0 else self.instances[i]
            cached = self.program.schema.view_instance(instance, peer)
            self._view_cache[key] = cached
        return cached

    def visible_at(self, peer: str, i: int) -> bool:
        """Is the i-th event visible at *peer* (Definition 3.1)?"""
        event = self.events[i]
        if event.peer == peer:
            return True
        return self.view_instance_at(peer, i - 1) != self.view_instance_at(peer, i)

    def visible_indices(self, peer: str) -> PyTuple[int, ...]:
        """Positions of the events visible at *peer*."""
        return tuple(i for i in range(len(self)) if self.visible_at(peer, i))

    def silent_indices(self, peer: str) -> PyTuple[int, ...]:
        """Positions of the events invisible (silent) at *peer*."""
        return tuple(i for i in range(len(self)) if not self.visible_at(peer, i))

    def view(self, peer: str) -> RunView:
        """The p-view ``ρ@p``: visible transitions, others' events as ω."""
        steps: List[ViewStep] = []
        for i in self.visible_indices(peer):
            event = self.events[i]
            label: Union[Event, _Omega] = event if event.peer == peer else OMEGA
            steps.append(ViewStep(i, label, self.view_instance_at(peer, i)))
        return RunView(peer, steps)

    def __repr__(self) -> str:
        lines = [f"Run({len(self.events)} events)"]
        for i, event in enumerate(self.events):
            lines.append(f"  [{i}] {event!r}")
        return "\n".join(lines)


def execute(
    program: WorkflowProgram,
    events: Sequence[Event],
    initial: Optional[Instance] = None,
    check_freshness: bool = True,
    observer: Optional[Callable[[int, Event, Instance], None]] = None,
) -> Run:
    """Execute *events* from *initial* (default: empty) and return the run.

    Enforces the run conditions: each event's body holds, its updates are
    applicable, and head-only variables take globally fresh values (not
    in ``const(P)`` nor in any earlier instance).  Raises
    :class:`~repro.workflow.errors.RunError` if the sequence is not a
    run.

    *observer* is invoked as ``observer(i, event, instance)`` after each
    successful transition — the hook the run journal of
    :mod:`repro.runtime.journal` uses to persist progress durably while
    the run is still executing, so a crash leaves a replayable prefix.
    """
    schema = program.schema
    instance = initial if initial is not None else Instance.empty(schema.schema)
    # The values a head-only variable must avoid: const(P), the initial
    # instance and every earlier event's head-only values.  Those are the
    # only values an event brings into an instance (its body variables are
    # bound from the acting peer's view, its head constants are in
    # const(P)), so this set is every value of every earlier instance.
    used: Optional[Set[object]] = None
    if check_freshness:
        used = set(program.constants())
        used.update(instance.active_domain())
    instances: List[Instance] = []
    for i, event in enumerate(events):
        try:
            instance = apply_event(schema, instance, event, used)
        except EventError as exc:
            raise RunError(f"event {i} ({event!r}) is not applicable: {exc}") from exc
        instances.append(instance)
        if used is not None:
            used.update(event.head_only_values())
        if observer is not None:
            observer(i, event, instance)
    return Run(program, initial if initial is not None else Instance.empty(schema.schema), events, instances)


def replay(
    program: WorkflowProgram,
    events: Sequence[Event],
    initial: Optional[Instance] = None,
) -> Optional[Run]:
    """Like :func:`execute` but returning None instead of raising.

    Freshness is not re-checked: replay is used to test whether a
    *subsequence* of an existing run yields a subrun, and freshness of
    head-only values is inherited from the original run.
    """
    try:
        return execute(program, events, initial, check_freshness=False)
    except RunError:
        return None
