"""Faithful subsequences and the minimal faithful scenario (Section 4).

A subsequence of a run is *p-faithful* when it contains every event
visible at ``p``, is *boundary faithful* (whenever an event of the
subsequence mentions a key inside a lifecycle, the lifecycle's boundary
events are included) and *modification faithful for p* (all earlier
events of the same lifecycle that turned a relevant attribute from ``⊥``
to a value are included).

The operator ``T_p(ρ, ·)`` adds to a subsequence the events required by
these two conditions; its least fixpoint above the visible events is the
unique minimal p-faithful scenario (Theorem 4.7), computable in
polynomial time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple as PyTuple

from ..runtime.budget import ambient_checkpoint
from ..workflow.domain import is_null
from ..workflow.runs import Run
from ..workflow.views import CollaborativeSchema
from .lifecycles import Lifecycle, LifecycleIndex
from .subruns import EventSubsequence, visible_subsequence


def relevant_attributes(schema: CollaborativeSchema, relation: str, peer: str) -> FrozenSet[str]:
    """``att(R, q) = att(R@q) ∪ att(σ(R@q))``; empty if q does not see R."""
    view = schema.view(relation, peer)
    if view is None:
        return frozenset()
    return view.relevant_attributes


@dataclass(frozen=True)
class AttributeModification:
    """Event *position* turned ``attribute`` of ``(relation, key)`` from ⊥ to a value."""

    position: int
    relation: str
    key: object
    attribute: str


class FaithfulnessAnalysis:
    """Precomputed structure for faithfulness checks over one run.

    Caches the lifecycle index and the attribute modifications each
    event performs (each event memoizes its own key occurrences), and
    exposes the requirement operator ``T_p`` for a fixed peer.
    """

    def __init__(self, run: Run, peer: str) -> None:
        self.run = run
        self.peer = peer
        self.schema = run.program.schema
        self.lifecycles = LifecycleIndex(run)
        self._modifications = self._collect_modifications()
        self._required_cache: Dict[int, FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    # Modifications: insertions turning attributes from ⊥ to a value
    # ------------------------------------------------------------------

    def _collect_modifications(self) -> Dict[PyTuple[str, object], List[AttributeModification]]:
        """Index attribute modifications by (relation, key)."""
        out: Dict[PyTuple[str, object], List[AttributeModification]] = {}
        run = self.run
        for i, event in enumerate(run.events):
            before = run.instance_before(i)
            after = run.instance_after(i)
            for insertion in event.ground_insertions():
                relation = insertion.view.relation.name
                key = insertion.key_term.value
                old = before.tuple_with_key(relation, key)
                if old is None:
                    continue  # creation of a new tuple, not a modification
                new = after.tuple_with_key(relation, key)
                if new is None:  # pragma: no cover - cannot happen: same event
                    continue
                for attribute in old.attributes:
                    if is_null(old[attribute]) and not is_null(new[attribute]):
                        out.setdefault((relation, key), []).append(
                            AttributeModification(i, relation, key, attribute)
                        )
        return out

    def modifications_of(self, relation: str, key: object) -> PyTuple[AttributeModification, ...]:
        return tuple(self._modifications.get((relation, key), ()))

    def key_occurrences(self, position: int) -> Mapping[str, FrozenSet[object]]:
        """``K(R, e_i)`` for every relation R mentioned by the event."""
        return self.run.events[position].key_occurrences()

    # ------------------------------------------------------------------
    # Direct requirements of one event
    # ------------------------------------------------------------------

    def required_events(self, position: int) -> FrozenSet[int]:
        """Events required (boundary + modification) by the event at *position*.

        Boundary faithfulness: for each key the event mentions that lies
        inside a lifecycle, the lifecycle's boundary events.
        Modification faithfulness: earlier events of the same lifecycle
        that turned an attribute in ``att(R, q) ∪ att(R, p)`` from ⊥ to
        a value, where ``q`` is the peer of the event at *position*.
        """
        cached = self._required_cache.get(position)
        if cached is not None:
            return cached
        required: Set[int] = set()
        event_peer = self.run.events[position].peer
        for relation, keys in self.key_occurrences(position).items():
            relevant = relevant_attributes(self.schema, relation, event_peer) | \
                relevant_attributes(self.schema, relation, self.peer)
            for key in keys:
                lifecycle = self.lifecycles.lifecycle_at(relation, key, position)
                if lifecycle is None:
                    continue
                if lifecycle.start is not None:
                    required.add(lifecycle.start)
                if lifecycle.end is not None:
                    required.add(lifecycle.end)
                for mod in self.modifications_of(relation, key):
                    if (
                        mod.position < position
                        and lifecycle.contains(mod.position)
                        and mod.attribute in relevant
                    ):
                        required.add(mod.position)
        required.discard(position)
        result = frozenset(required)
        self._required_cache[position] = result
        return result

    # ------------------------------------------------------------------
    # The operator T_p and its fixpoint
    # ------------------------------------------------------------------

    def step(self, indices: FrozenSet[int]) -> FrozenSet[int]:
        """One application of ``T_p(ρ, ·)``."""
        out: Set[int] = set(indices)
        for i in indices:
            out.update(self.required_events(i))
        return frozenset(out)

    def closure(self, indices: Iterable[int]) -> FrozenSet[int]:
        """``T_p^ω(ρ, α)``: the least fixpoint above *indices* (worklist)."""
        closed: Set[int] = set()
        frontier: List[int] = list(indices)
        while frontier:
            ambient_checkpoint()
            i = frontier.pop()
            if i in closed:
                continue
            closed.add(i)
            frontier.extend(self.required_events(i) - closed)
        return frozenset(closed)

    # ------------------------------------------------------------------
    # Faithfulness predicates
    # ------------------------------------------------------------------

    def is_boundary_faithful(self, indices: FrozenSet[int]) -> bool:
        """Definition 4.3, restricted to the boundary requirements."""
        for i in indices:
            for relation, keys in self.key_occurrences(i).items():
                for key in keys:
                    lifecycle = self.lifecycles.lifecycle_at(relation, key, i)
                    if lifecycle is None:
                        continue
                    if lifecycle.start is not None and lifecycle.start not in indices:
                        return False
                    if lifecycle.end is not None and lifecycle.end not in indices:
                        return False
        return True

    def is_modification_faithful(self, indices: FrozenSet[int]) -> bool:
        """Definition 4.4 for the fixed peer."""
        for i in indices:
            event_peer = self.run.events[i].peer
            for relation, keys in self.key_occurrences(i).items():
                relevant = relevant_attributes(self.schema, relation, event_peer) | \
                    relevant_attributes(self.schema, relation, self.peer)
                for key in keys:
                    lifecycle = self.lifecycles.lifecycle_at(relation, key, i)
                    if lifecycle is None:
                        continue
                    for mod in self.modifications_of(relation, key):
                        if (
                            mod.position < i
                            and lifecycle.contains(mod.position)
                            and mod.attribute in relevant
                            and mod.position not in indices
                        ):
                            return False
        return True

    def is_faithful(self, indices: Iterable[int]) -> bool:
        """Definition 4.5: visible events included + fixpoint of ``T_p``."""
        index_set = frozenset(indices)
        visible = frozenset(self.run.visible_indices(self.peer))
        if not visible <= index_set:
            return False
        return self.step(index_set) == index_set


@dataclass(frozen=True)
class FaithfulScenario:
    """The minimal p-faithful scenario of a run (Theorem 4.7)."""

    run: Run
    peer: str
    indices: PyTuple[int, ...]

    def subsequence(self) -> EventSubsequence:
        return EventSubsequence(self.run, self.indices)

    def subrun(self):
        """The scenario replayed as a run (guaranteed by Lemma 4.6)."""
        subrun = self.subsequence().to_subrun()
        if subrun is None:  # pragma: no cover - contradicts Lemma 4.6
            raise AssertionError("faithful subsequence failed to yield a subrun")
        return subrun

    def __len__(self) -> int:
        return len(self.indices)


def minimal_faithful_scenario(run: Run, peer: str) -> FaithfulScenario:
    """The unique minimal p-faithful scenario ``T_p^ω(ρ, visible)``.

    Computable in polynomial time (Theorem 4.7).

    >>> # scenario = minimal_faithful_scenario(run, "sue")
    >>> # scenario.subrun().view("sue") == run.view("sue")
    """
    analysis = FaithfulnessAnalysis(run, peer)
    visible = run.visible_indices(peer)
    return FaithfulScenario(run, peer, tuple(sorted(analysis.closure(visible))))


def is_faithful_scenario(run: Run, peer: str, indices: Iterable[int]) -> bool:
    """True iff *indices* is a p-faithful subsequence of ``e(ρ)``.

    By Lemma 4.6 a p-faithful subsequence always yields a scenario, so no
    separate replay check is needed; this predicate checks Definition 4.5
    directly.
    """
    return FaithfulnessAnalysis(run, peer).is_faithful(indices)
