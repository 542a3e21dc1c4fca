"""Peer views and collaborative schemas.

A collaborative schema (Definition 2.1) equips every peer ``p`` with a
view schema ``D@p``: for some relations ``R`` of the global schema, a
view ``R@p`` exposing a subset of the attributes (always containing the
key) and the tuples satisfying a selection condition ``σ(R@p)`` over the
full attribute set.

An event's body is checked on ``I@p`` through
:meth:`CollaborativeSchema.view_probe`, a read-through answering keyed
reads at the cost of one lookup each; :meth:`~CollaborativeSchema.view_instance`
materializes ``I@p`` for the readers that scan it.

The *losslessness* condition requires that every valid global instance
can be reconstructed from the collective peer views with the key chase.
:meth:`CollaborativeSchema.losslessness_violations` decides it by
checking, for every relation and attribute, that no valid tuple can hold
a non-null value invisible at every peer — a finite check over canonical
tuples (see :func:`repro.workflow.conditions.canonical_tuples`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple as PyTuple

from .conditions import TRUE, Condition, canonical_tuples
from .domain import is_null
from .errors import LosslessnessError, SchemaError
from .instance import Instance
from .schema import Relation, Schema
from .tuples import Tuple


@dataclass(frozen=True)
class View:
    """A view ``R@p`` of relation *relation* for peer *peer*.

    ``attributes`` is the projection ``att(R@p)`` (must contain the key
    and respect the relation's attribute order); ``selection`` is the
    condition ``σ(R@p)`` over the full ``att(R)``.
    """

    relation: Relation
    peer: str
    attributes: PyTuple[str, ...]
    selection: Condition = TRUE

    def __post_init__(self) -> None:
        attrs = tuple(self.attributes)
        if self.relation.key_attribute not in attrs:
            raise SchemaError(
                f"view {self.name} must include the key attribute "
                f"{self.relation.key_attribute!r}"
            )
        unknown = [a for a in attrs if not self.relation.has_attribute(a)]
        if unknown:
            raise SchemaError(f"view {self.name} projects unknown attributes {unknown}")
        ordered = tuple(a for a in self.relation.attributes if a in attrs)
        object.__setattr__(self, "attributes", ordered)
        bad = self.selection.attributes() - set(self.relation.attributes)
        if bad:
            raise SchemaError(
                f"selection of view {self.name} mentions unknown attributes {sorted(bad)}"
            )

    @property
    def name(self) -> str:
        """The conventional name ``R@p``."""
        return f"{self.relation.name}@{self.peer}"

    @property
    def view_relation(self) -> Relation:
        """The relation schema of the view (named ``R@p``)."""
        return Relation(self.name, self.attributes)

    @property
    def relevant_attributes(self) -> FrozenSet[str]:
        """``att(R, p) = att(R@p) ∪ att(σ(R@p))`` (Section 4).

        These attributes determine whether a tuple is seen by the peer
        and what values it sees.
        """
        return frozenset(self.attributes) | self.selection.attributes()

    def sees_tuple(self, tup: Tuple) -> bool:
        """True iff the full tuple *tup* passes the view's selection."""
        return self.selection.evaluate(tup)

    def observe(self, tup: Tuple) -> Optional[Tuple]:
        """The peer's observation of full tuple *tup*, or None if hidden."""
        if not self.sees_tuple(tup):
            return None
        if tup.attributes == self.attributes:
            return tup  # the view keeps every attribute: nothing to project
        return tup.project(self.attributes)

    def is_full(self) -> bool:
        """True iff the view exposes all attributes and all tuples."""
        return self.attributes == self.relation.attributes and self.selection == TRUE

    def __repr__(self) -> str:
        sel = "" if self.selection == TRUE else f" where {self.selection!r}"
        return f"{self.name}[{', '.join(self.attributes)}]{sel}"


class ViewProbe:
    """Keyed reads of a peer's view instance ``I@p`` through its views.

    Answers :meth:`has_key`, :meth:`contains_tuple` and
    :meth:`tuple_with_key` on a view relation ``R@p`` with
    :meth:`Instance.tuple_with_key` on ``R`` plus :meth:`View.observe`,
    so a body check costs one lookup per literal instead of an O(|I|)
    view rebuild.  The answers equal those of the materialized
    :meth:`CollaborativeSchema.view_instance`: a tuple the selection
    hides is absent, and a ⊥ key is never stored.
    """

    __slots__ = ("instance", "_views")

    def __init__(self, instance: Instance, views: Mapping[str, View]) -> None:
        self.instance = instance
        self._views = views

    def tuple_with_key(self, name: str, key: object) -> Optional[Tuple]:
        view = self._views[name]
        tup = self.instance.tuple_with_key(view.relation.name, key)
        return None if tup is None else view.observe(tup)

    def has_key(self, name: str, key: object) -> bool:
        view = self._views[name]
        tup = self.instance.tuple_with_key(view.relation.name, key)
        return tup is not None and view.sees_tuple(tup)

    def contains_tuple(self, name: str, tup: Tuple) -> bool:
        seen = self.tuple_with_key(name, tup.key)
        return seen is not None and seen == tup


class CollaborativeSchema:
    """A collaborative schema: a global schema plus per-peer views.

    >>> R = Relation("R", ("K", "A"))
    >>> S = CollaborativeSchema(Schema([R]), ["p"],
    ...                         [View(R, "p", ("K", "A"))])
    >>> S.view("R", "p").is_full()
    True
    """

    def __init__(
        self,
        schema: Schema,
        peers: Sequence[str],
        views: Iterable[View],
        require_lossless: bool = False,
    ) -> None:
        self.schema = schema
        self.peers: PyTuple[str, ...] = tuple(peers)
        if len(set(self.peers)) != len(self.peers):
            raise SchemaError(f"duplicate peers: {self.peers}")
        self._views: Dict[PyTuple[str, str], View] = {}
        #: peer -> view name ``R@p`` -> view, for :meth:`view_probe`.
        self._peer_views: Dict[str, Dict[str, View]] = {peer: {} for peer in self.peers}
        for view in views:
            if view.peer not in self.peers:
                raise SchemaError(f"view {view.name} belongs to unknown peer {view.peer!r}")
            if view.relation.name not in schema:
                raise SchemaError(f"view {view.name} is over unknown relation")
            if schema.relation(view.relation.name) != view.relation:
                raise SchemaError(
                    f"view {view.name} disagrees with the schema of {view.relation.name}"
                )
            key = (view.relation.name, view.peer)
            if key in self._views:
                raise SchemaError(f"duplicate view {view.name}")
            self._views[key] = view
            self._peer_views[view.peer][view.name] = view
        if require_lossless:
            violations = self.losslessness_violations()
            if violations:
                raise LosslessnessError("; ".join(violations))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def view(self, relation: str, peer: str) -> Optional[View]:
        """The view ``R@p`` if peer *peer* sees relation *relation*."""
        return self._views.get((relation, peer))

    def views_of_peer(self, peer: str) -> PyTuple[View, ...]:
        """All views of *peer*, in global schema order."""
        return tuple(
            self._views[(r.name, peer)]
            for r in self.schema
            if (r.name, peer) in self._views
        )

    def views_of_relation(self, relation: str) -> PyTuple[View, ...]:
        """All peer views of *relation*, in peer declaration order."""
        return tuple(
            self._views[(relation, p)] for p in self.peers if (relation, p) in self._views
        )

    def all_views(self) -> PyTuple[View, ...]:
        return tuple(self._views.values())

    def peer_schema(self, peer: str) -> Schema:
        """The view schema ``D@p`` as a database schema of its own."""
        return Schema([v.view_relation for v in self.views_of_peer(peer)])

    def peer_sees(self, relation: str, peer: str) -> bool:
        return (relation, peer) in self._views

    # ------------------------------------------------------------------
    # View instances
    # ------------------------------------------------------------------

    def view_instance(self, instance: Instance, peer: str) -> Instance:
        """The view instance ``I@p`` of global instance *instance*."""
        view_schema = self.peer_schema(peer)
        data: Dict[str, Dict[object, Tuple]] = {}
        for view in self.views_of_peer(peer):
            observed: Dict[object, Tuple] = {}
            for tup in instance.relation(view.relation.name):
                seen = view.observe(tup)
                if seen is not None:
                    observed[seen.key] = seen
            data[view.name] = observed
        return Instance(view_schema, data)

    def view_probe(self, instance: Instance, peer: str) -> ViewProbe:
        """A read-through of ``I@p`` over *instance*, built in O(1).

        Answers the keyed reads a body check makes with one lookup in
        *instance* each, exactly as :meth:`view_instance` followed by the
        same read would, without materializing ``I@p``.
        """
        return ViewProbe(instance, self._peer_views[peer])

    def reconstruct(self, view_instances: Mapping[str, Instance]) -> Instance:
        """Reassemble a global instance from peer view instances.

        Implements ``chase_K(∪ (I@p(R@p))^⊥)``; under losslessness this
        recovers the original instance.
        """
        from .instance import chase

        padded: Dict[str, List[Tuple]] = {r.name: [] for r in self.schema}
        for peer, inst in view_instances.items():
            for view in self.views_of_peer(peer):
                for tup in inst.relation(view.name):
                    padded[view.relation.name].append(tup.pad(view.relation.attributes))
        return chase(self.schema, padded)

    # ------------------------------------------------------------------
    # Losslessness
    # ------------------------------------------------------------------

    def losslessness_violations(self) -> List[str]:
        """Describe every way the losslessness condition can fail.

        For each relation ``R`` and attribute ``A``, losslessness fails
        iff some valid tuple can carry a non-null value for ``A`` while no
        peer whose view contains ``A`` selects the tuple.  The check
        enumerates canonical tuples covering all equality patterns over
        the selection conditions of ``R``'s views.
        """
        violations: List[str] = []
        for relation in self.schema:
            views = self.views_of_relation(relation.name)
            selections = [v.selection for v in views]
            for attribute in relation.attributes:
                covering = [v for v in views if attribute in v.attributes]
                witness = self._uncovered_witness(relation, attribute, covering, selections)
                if witness is not None:
                    violations.append(
                        f"attribute {attribute!r} of relation {relation.name} is lost "
                        f"for tuples like {witness!r}"
                    )
        return violations

    def is_lossless(self) -> bool:
        """True iff the schema satisfies the losslessness condition."""
        return not self.losslessness_violations()

    def _uncovered_witness(
        self,
        relation: Relation,
        attribute: str,
        covering: Sequence[View],
        all_selections: Sequence[Condition],
    ) -> Optional[Tuple]:
        """A canonical tuple with non-null *attribute* seen by no covering view."""
        for tup in canonical_tuples(relation.attributes, all_selections, relation.key_attribute):
            if is_null(tup[attribute]):
                continue
            if not any(view.sees_tuple(tup) for view in covering):
                return tup
        return None

    def __repr__(self) -> str:
        views = ", ".join(repr(v) for v in self._views.values())
        return f"CollaborativeSchema(peers={list(self.peers)}, views=[{views}])"
