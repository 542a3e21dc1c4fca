"""Events: rule instantiations.

An event is the instantiation ``να`` of a rule ``α`` by a valuation
``ν``.  Events carry their ground body literals and ground head updates;
the set ``K(R, e)`` of key values of relation ``R`` occurring in an event
(Section 4) is derived from these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple as PyTuple

from .domain import is_null
from .errors import EventError
from .queries import Comparison, Const, KeyLiteral, Literal, Query, RelLiteral, Var, term_value
from .rules import Deletion, Insertion, Rule, UpdateAtom


@dataclass(frozen=True)
class Event:
    """The instantiation of *rule* by *valuation*.

    The valuation must assign every variable of the rule (body variables
    and head-only variables alike).
    """

    rule: Rule
    valuation: PyTuple[PyTuple[Var, object], ...]

    def __init__(self, rule: Rule, valuation: Mapping[Var, object]) -> None:
        variables = rule.variables()
        missing = variables.difference(valuation)
        if missing:
            raise EventError(
                f"valuation for rule {rule.name} misses variables "
                f"{sorted(v.name for v in missing)}"
            )
        items = tuple(sorted(
            ((var, value) for var, value in valuation.items() if var in variables),
            key=lambda item: item[0].name,
        ))
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "valuation", items)

    @property
    def peer(self) -> str:
        """``peer(e)``: the peer performing the event."""
        return self.rule.peer

    def valuation_dict(self) -> Dict[Var, object]:
        return dict(self.valuation)

    # ------------------------------------------------------------------
    # Ground body and head
    # ------------------------------------------------------------------

    def ground_body(self) -> PyTuple[Literal, ...]:
        """The instantiated body literals."""
        valuation = self.valuation_dict()
        return tuple(lit.substitute(valuation) for lit in self.rule.body.literals)

    def ground_head(self) -> PyTuple[UpdateAtom, ...]:
        """The instantiated update atoms."""
        valuation = self.valuation_dict()
        return tuple(atom.substitute(valuation) for atom in self.rule.head)

    def ground_insertions(self) -> PyTuple[Insertion, ...]:
        return tuple(a for a in self.ground_head() if isinstance(a, Insertion))

    def ground_deletions(self) -> PyTuple[Deletion, ...]:
        return tuple(a for a in self.ground_head() if isinstance(a, Deletion))

    # ------------------------------------------------------------------
    # Values
    # ------------------------------------------------------------------

    def head_only_values(self) -> FrozenSet[object]:
        """Values assigned to head-only variables (must be globally fresh)."""
        valuation = self.valuation_dict()
        return frozenset(valuation[v] for v in self.rule.head_only_variables())

    def values(self) -> FrozenSet[object]:
        """All non-null values occurring in the event (``adom`` contribution)."""
        out: Set[object] = set()
        for _, value in self.valuation:
            if not is_null(value):
                out.add(value)
        for atom in self.rule.head:
            out.update(atom.constants())
        out.update(self.rule.body.constants())
        return frozenset(out)

    def new_values(self) -> FrozenSet[object]:
        """``new(e)``: values occurring in the head but not the body.

        For an instantiated rule these are exactly the values of the
        head-only variables (which the run semantics forces to be fresh).
        """
        return frozenset(v for v in self.head_only_values() if not is_null(v))

    # ------------------------------------------------------------------
    # K(R, e): keys of a relation occurring in the event
    # ------------------------------------------------------------------

    def keys_of(self, relation: str) -> FrozenSet[object]:
        """``K(R, e)``: values occurring as keys of *relation* in the event.

        A value occurs as a key of ``R`` if it instantiates the key
        position of a body literal ``R@q(k, ū)`` or ``(¬)Key_R@q(k)``, or
        the key of a head update ``+R@q(k, ū)`` / ``−Key_R@q(k)``.
        """
        return self.key_occurrences().get(relation, frozenset())

    def relations_mentioned(self) -> FrozenSet[str]:
        """Names of relations whose keys occur in the event."""
        names: Set[str] = set()
        for literal in self.rule.body.literals:
            view = getattr(literal, "view", None)
            if view is not None:
                names.add(view.relation.name)
        for atom in self.rule.head:
            names.add(atom.view.relation.name)
        return frozenset(names)

    def key_occurrences(self) -> Mapping[str, FrozenSet[object]]:
        """Mapping relation name -> ``K(R, e)`` for relations in the event.

        One pass over the rule: each key term (of a relational or key
        literal in the body, or of a head update) is read off the
        valuation; null keys are dropped, but their relation is still
        mentioned.  Computed once per event and shared by every caller
        (do not mutate it); the memo is not a dataclass field, so it
        leaves ``==``, ``hash`` and serialization alone.
        """
        memo = self.__dict__.get("_key_occurrences")
        if memo is not None:
            return memo
        valuation = self.valuation_dict()
        keys: Dict[str, Set[object]] = {}
        for part in self.rule.body.literals + self.rule.head:
            if isinstance(part, Comparison):
                continue
            term = part.term if isinstance(part, KeyLiteral) else part.key_term
            value = term_value(term, valuation)
            found = keys.setdefault(part.view.relation.name, set())
            if not is_null(value):
                found.add(value)
        memo = {name: frozenset(found) for name, found in keys.items()}
        object.__setattr__(self, "_key_occurrences", memo)
        return memo

    def __repr__(self) -> str:
        assignment = ", ".join(f"{var.name}={value!r}" for var, value in self.valuation)
        return f"{self.rule.name}@{self.peer}[{assignment}]"
