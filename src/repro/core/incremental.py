"""Incremental maintenance of minimal faithful scenarios (Section 4).

The closure operator ``T_p^ω(ρ, ·)`` is additive (Lemma A.1), so
``T_p^ω(ρ, α) = ⋃_{f∈α} T_p^ω(ρ, {f})``: maintaining one closure per
event suffices.  When a new event ``e`` arrives, only two kinds of
requirement edges appear: ``e`` requires earlier events (its boundary and
modification requirements), and events whose closure touches an open
lifecycle that ``e`` closes now require ``e``.  Both are handled with a
single application of the requirement operator per event, avoiding
fixpoint recomputation from scratch — mirroring the incremental
maintenance algorithm sketched at the end of Section 4.

The facts the requirement operator needs about each transition do not
depend on the peer: the lifecycles it opens and closes, the attributes a
chase merge fills in, and who sees it.  They are read off the run's
:class:`~repro.obs.provenance.ProvenanceRecord` — the one record of what
the transition did — and ``K(R, e)`` off the event, which memoizes it.
What an explainer keeps is what depends on its peer: visibility bits,
closures, the scenario, the touching sets, and the lifecycle and
modification dicts it derives from the records.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple as PyTuple

from ..obs.provenance import ProvenanceRecord
from ..workflow.engine import apply_event_with_delta
from ..workflow.events import Event
from ..workflow.instance import Instance
from ..workflow.program import WorkflowProgram
from ..workflow.runs import Run, execute
from .faithful import AttributeModification, relevant_attributes

#: A lifecycle is identified by (relation, key, start) where start is
#: None for tuples pre-existing in the initial instance.
_LifecycleId = PyTuple[str, object, Optional[int]]


class IncrementalExplainer:
    """Maintains the minimal p-faithful scenario of a growing run.

    Feed events with :meth:`advance` (a transition already applied, read
    off its provenance record) or :meth:`extend` (the standalone form,
    which applies the event itself); query the scenario with
    :meth:`minimal_scenario` and per-event explanations with
    :meth:`explanation_of`, both in O(1) bookkeeping per event beyond the
    new requirement edges.  A hosted run advances its explainers with
    the records its dataflow graph writes, and a late explainer catches
    up from the run's log, so no hosted explainer applies an event.
    :meth:`extend` applies at the last instance it reached (O(|delta|),
    never O(|I|)), which :meth:`advance` does not move: feed one
    explainer through one of the two.

    >>> # explainer = IncrementalExplainer(program, "sue")
    >>> # for event in events: explainer.extend(event)
    >>> # explainer.minimal_scenario()
    """

    def __init__(
        self,
        program: WorkflowProgram,
        peer: str,
        initial: Optional[Instance] = None,
    ) -> None:
        self.program = program
        self.peer = peer
        self.schema = program.schema
        self._initial = initial if initial is not None else Instance.empty(self.schema.schema)
        #: The last instance :meth:`extend` reached.
        self._instance = self._initial
        self._events: List[Event] = []
        self._visible: List[bool] = []
        self._closures: List[Set[int]] = []
        self._scenario: Set[int] = set()
        # Lifecycle bookkeeping.
        self._open: Dict[PyTuple[str, object], Optional[int]] = {}
        self._closed: Dict[PyTuple[str, object], List[PyTuple[Optional[int], int]]] = {}
        for relation in self.schema.schema:
            for key in self._initial.keys(relation.name):
                self._open[(relation.name, key)] = None  # pre-existing
        # For each open lifecycle, the events whose closure touches it.
        self._touching: Dict[_LifecycleId, Set[int]] = {}
        # Attribute modifications per (relation, key).
        self._modifications: Dict[PyTuple[str, object], List[AttributeModification]] = {}

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def minimal_scenario(self) -> PyTuple[int, ...]:
        """The indices of the minimal p-faithful scenario so far."""
        return tuple(sorted(self._scenario))

    def explanation_of(self, index: int) -> FrozenSet[int]:
        """``T_p^ω(ρ, {f})``: the minimal faithful explanation of one event.

        The event at *index* need not be visible at the peer.
        """
        return frozenset(self._closures[index])

    def visible_indices(self) -> PyTuple[int, ...]:
        return tuple(i for i, visible in enumerate(self._visible) if visible)

    def run(self) -> Run:
        """The full run accumulated so far, rebuilt by replaying its events."""
        return execute(self.program, self._events, self._initial, check_freshness=False)

    # ------------------------------------------------------------------
    # Extension
    # ------------------------------------------------------------------

    def extend(self, event: Event) -> int:
        """Apply *event* to the run and update all scenario state.

        Returns the index of the new event.  Raises
        :class:`~repro.workflow.errors.EventError` if the event is not
        applicable (the run state is left unchanged in that case).
        """
        after, delta = apply_event_with_delta(
            self.schema, self._instance, event, forbidden_fresh=None
        )
        seen = event.peer == self.peer or delta.visible_to(self.schema, self.peer)
        record = ProvenanceRecord(
            seq=len(self._events),
            rule=event.rule.name,
            peer=event.peer,
            touched=delta.touched(),
            visible_to=tuple(sorted({event.peer, self.peer})) if seen else (event.peer,),
            filled=delta.filled(),
        )
        index = self.advance(event, record)
        self._instance = after
        return index

    def advance(self, event: Event, record: ProvenanceRecord) -> int:
        """Append *event*, already applied, given its provenance *record*.

        Only ``touched``, ``filled`` and whether ``visible_to`` holds this
        explainer's peer are read.  Returns the index of the new event,
        as :meth:`extend` does.
        """
        index = len(self._events)
        self._events.append(event)
        closed_now = self._update_lifecycles(index, record)
        for relation, key, attribute in record.filled:
            self._modifications.setdefault((relation, key), []).append(
                AttributeModification(index, relation, key, attribute)
            )
        visible = self.peer in record.visible_to
        self._visible.append(visible)
        # Closure of the new event: itself plus the closures of its
        # direct requirements (each already a fixpoint; the union is one
        # by additivity).
        requirements = self._direct_requirements(index, event)
        closure: Set[int] = {index}
        for j in requirements:
            closure.update(self._closures[j])
        self._closures.append(closure)
        self._register_touching(index, closure)
        if visible:
            self._scenario.update(closure)
        # Events whose closure touches a lifecycle closed by this event
        # now require it (the right boundary) and everything it requires.
        for lifecycle_id in closed_now:
            for owner in self._touching.pop(lifecycle_id, set()):
                self._grow_closure(owner, closure | {index})
        return index

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _update_lifecycles(
        self, index: int, record: ProvenanceRecord
    ) -> List[_LifecycleId]:
        """Open/close lifecycles; return ids of lifecycles closed at *index*.

        The record lists every key the event touched, so the keys it
        removed close their lifecycles and the keys it added open new
        ones; a chase merge into an existing key (``update``) does
        neither.
        """
        closed_now: List[_LifecycleId] = []
        for name, key, action in record.touched:
            if action == "delete":
                start = self._open.pop((name, key))
                self._closed.setdefault((name, key), []).append((start, index))
                closed_now.append((name, key, start))
            elif action == "insert":
                self._open[(name, key)] = index
        return closed_now

    def _lifecycle_at(
        self, relation: str, key: object, position: int
    ) -> Optional[PyTuple[Optional[int], Optional[int]]]:
        """The (start, end) of the lifecycle of (relation, key) containing *position*."""
        open_start = self._open.get((relation, key), _MISSING)
        if open_start is not _MISSING:
            if open_start is None or open_start <= position:
                return (open_start, None)
        for start, end in self._closed.get((relation, key), ()):
            if (start is None or start <= position) and position <= end:
                return (start, end)
        return None

    def _direct_requirements(self, index: int, event: Event) -> Set[int]:
        required: Set[int] = set()
        for relation, keys in event.key_occurrences().items():
            relevant = relevant_attributes(self.schema, relation, event.peer) | \
                relevant_attributes(self.schema, relation, self.peer)
            for key in keys:
                span = self._lifecycle_at(relation, key, index)
                if span is None:
                    continue
                start, end = span
                if start is not None:
                    required.add(start)
                if end is not None:
                    required.add(end)
                for mod in self._modifications.get((relation, key), ()):
                    if (
                        mod.position < index
                        and (start is None or start <= mod.position)
                        and (end is None or mod.position <= end)
                        and mod.attribute in relevant
                    ):
                        required.add(mod.position)
        required.discard(index)
        return required

    def _touch_points(self, member: int) -> List[_LifecycleId]:
        """Open lifecycles the event at *member* lies in and mentions."""
        points: List[_LifecycleId] = []
        for relation, keys in self._events[member].key_occurrences().items():
            for key in keys:
                open_start = self._open.get((relation, key), _MISSING)
                if open_start is _MISSING:
                    continue
                if open_start is None or open_start <= member:
                    points.append((relation, key, open_start))
        return points

    def _register_touching(self, owner: int, members: Iterable[int]) -> None:
        for member in members:
            for lifecycle_id in self._touch_points(member):
                self._touching.setdefault(lifecycle_id, set()).add(owner)

    def _grow_closure(self, owner: int, addition: Set[int]) -> None:
        delta = addition - self._closures[owner]
        if not delta:
            return
        self._closures[owner].update(delta)
        self._register_touching(owner, delta)
        if self._visible[owner]:
            self._scenario.update(delta)


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


_MISSING = _Missing()
