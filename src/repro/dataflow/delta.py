"""The unified transition delta: one object, every delta-facing view.

Before the dataflow core, three surfaces each consumed the engine's
per-transition change summary in their own shape: the service view
cache read ``(before, after)`` pairs per touched key, the provenance
log derived ``(relation, key, action)`` triples, and the transparency
layer asked per-peer visibility questions.  :class:`Delta` is the one
public object behind all three — the same frozen
``relation -> key -> (before, after)`` mapping the engine has always
produced (the transition semantics only touches the keys in an event's
ground head, so the mapping is *complete*: unlisted keys are untouched)
plus the unified accessors:

* :meth:`inserted` / :meth:`deleted` / :meth:`updated` — the touched
  keys by kind;
* :meth:`touched` / :meth:`filled` — the provenance triples;
* :meth:`observe` / :meth:`visible_to` / :meth:`refresh_view` — the
  delta lifted through one peer's views (selection + projection on the
  touched keys only, never a scan).

``Delta`` is exactly the class previously exported as
``repro.workflow.engine.ViewDelta``; that name is gone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple as PyTuple

if TYPE_CHECKING:  # annotation-only: keeps this module import-cycle-free
    # (the engine imports Delta, so delta.py must not pull the workflow
    # package in at runtime — every workflow name here is a type hint).
    from ..workflow.instance import Instance
    from ..workflow.tuples import Tuple
    from ..workflow.views import CollaborativeSchema

__all__ = ["Delta"]


@dataclass(frozen=True)
class Delta:
    """The keys one transition touched, with their before/after tuples.

    ``changes`` maps each touched relation to ``key -> (before, after)``
    where ``before``/``after`` are the full tuples at that key in the
    source/result instance (``None`` when absent on that side).  The
    transition semantics only ever touches the keys appearing in the
    event's ground head — even a chase-induced merge rewrites exactly
    the merged key — so the delta is complete: every key not listed is
    untouched, and every derived artifact downstream of it can be
    maintained in O(|delta|).

    ``chase_merged`` is True when some insertion merged into an existing
    tuple (the chase filled nulls rather than creating a fresh tuple) —
    the case callers that maintain derived state keyed on tuple identity
    may want to treat conservatively.
    """

    changes: Mapping[str, Mapping[object, PyTuple[Optional[Tuple], Optional[Tuple]]]]
    chase_merged: bool = False

    # ------------------------------------------------------------------
    # Key-level reads
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        return not any(self.changes.values())

    def touched_relations(self) -> PyTuple[str, ...]:
        return tuple(sorted(name for name, keys in self.changes.items() if keys))

    def inserted(self, relation: str) -> PyTuple[object, ...]:
        """Keys newly present in *relation* after the transition."""
        keys = self.changes.get(relation, {})
        return tuple(k for k, (before, after) in keys.items()
                     if before is None and after is not None)

    def deleted(self, relation: str) -> PyTuple[object, ...]:
        """Keys removed from *relation* by the transition."""
        keys = self.changes.get(relation, {})
        return tuple(k for k, (before, after) in keys.items()
                     if before is not None and after is None)

    def updated(self, relation: str) -> PyTuple[object, ...]:
        """Keys present on both sides whose tuple changed (chase merges)."""
        keys = self.changes.get(relation, {})
        return tuple(k for k, (before, after) in keys.items()
                     if before is not None and after is not None and before != after)

    # ------------------------------------------------------------------
    # The provenance surface
    # ------------------------------------------------------------------

    def touched(self) -> PyTuple[PyTuple[str, object, str], ...]:
        """``(relation, key, action)`` triples, sorted; action is
        ``insert``, ``delete`` or ``update`` (a chase merge rewriting an
        existing key)."""
        triples = []
        for relation, keys in self.changes.items():
            for key, (before, after) in keys.items():
                if before is None:
                    action = "insert"
                elif after is None:
                    action = "delete"
                else:
                    action = "update"
                triples.append((relation, key, action))
        triples.sort(key=lambda t: (t[0], repr(t[1])))
        return tuple(triples)

    def filled(self) -> PyTuple[PyTuple[str, object, str], ...]:
        """``(relation, key, attribute)`` triples a chase merge filled in
        (⊥ → value): Section 4's attribute modifications."""
        return tuple(
            (relation, key, attribute)
            for relation, keys in self.changes.items()
            for key, (before, after) in keys.items()
            if before is not None and after is not None
            for attribute in before.filled_by(after)
        )

    # ------------------------------------------------------------------
    # The view surface (the delta lifted through one peer's views)
    # ------------------------------------------------------------------

    def observe(
        self, schema: CollaborativeSchema, peer: str
    ) -> Dict[str, Dict[object, PyTuple[Optional[Tuple], Optional[Tuple]]]]:
        """The delta as *peer* sees it: per view name, the touched keys
        with their observed before/after tuples (selection applied,
        projection onto ``att(R@p)``).  O(|delta|)."""
        out: Dict[str, Dict[object, PyTuple[Optional[Tuple], Optional[Tuple]]]] = {}
        for relation, keys in self.changes.items():
            view = schema.view(relation, peer)
            if view is None:
                continue
            observed = out.setdefault(view.name, {})
            for key, (before, after) in keys.items():
                seen_before = view.observe(before) if before is not None else None
                seen_after = view.observe(after) if after is not None else None
                observed[key] = (seen_before, seen_after)
        return out

    def visible_to(self, schema: CollaborativeSchema, peer: str) -> bool:
        """True iff the transition changes *peer*'s view.

        Some touched key observes differently through the peer's views.
        O(|delta|), and equivalent to comparing
        ``schema.view_instance`` on both sides because the delta is
        complete — every untouched key observes identically.
        """
        for relation, keys in self.changes.items():
            view = schema.view(relation, peer)
            if view is None:
                continue
            for before, after in keys.values():
                seen_before = view.observe(before) if before is not None else None
                seen_after = view.observe(after) if after is not None else None
                if seen_before != seen_after:
                    return True
        return False

    def refresh_view(
        self, schema: CollaborativeSchema, peer: str, view_instance: Instance
    ) -> Instance:
        """*peer*'s view of the successor instance, patched in O(|delta|).

        *view_instance* must be the peer's view of the transition's
        source instance; the touched keys are re-observed and patched in
        with :meth:`~repro.workflow.instance.Instance.replace_tuples`.
        Returns the same object when the transition is invisible to the
        peer, so ``result is view_instance`` doubles as a visibility
        test.
        """
        result = view_instance
        for relation, keys in self.changes.items():
            view = schema.view(relation, peer)
            if view is None:
                continue
            observed = {
                key: (view.observe(after) if after is not None else None)
                for key, (_, after) in keys.items()
            }
            result = result.replace_tuples(view.name, observed)
        return result

    # ------------------------------------------------------------------
    # Construction from instances
    # ------------------------------------------------------------------

    @classmethod
    def from_instances(cls, before: Instance, after: Instance) -> "Delta":
        """The full diff of two instances (O(|before| + |after|)).

        The engine never needs this — transition deltas are read off the
        event's ground head — but differential tests and delta-less
        state changes (recovery) do.
        """
        changes: Dict[str, Dict[object, PyTuple[Optional[Tuple], Optional[Tuple]]]] = {}
        for relation in {*before.schema.relation_names, *after.schema.relation_names}:
            old = dict(before.tuples_by_key(relation))
            new = dict(after.tuples_by_key(relation))
            for key in {*old, *new}:
                if old.get(key) != new.get(key):
                    changes.setdefault(relation, {})[key] = (
                        old.get(key), new.get(key)
                    )
        return cls(changes)

