"""Update atoms and workflow rules.

A rule at peer ``p`` has the form ``Update :- Cond`` where ``Cond`` is an
FCQ¬ query over ``D@p`` and ``Update`` is a sequence of update atoms at
``p``: insertions ``+R@p(x̄)`` and deletions ``−Key_R@p(x)``.  Two
updates in the same rule may not affect the same tuple: if they touch the
same relation with key terms ``x, x'``, either the keys are distinct
constants or the body carries the inequality ``x ≠ x'``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple as PyTuple

from .domain import NULL, is_null
from .errors import RuleError
from .queries import Comparison, Const, Query, RelLiteral, Term, Var, is_var, term_value
from .views import View


class UpdateAtom:
    """Base class for head update atoms."""

    view: View

    @property
    def key_term(self) -> Term:
        raise NotImplementedError

    def variables(self) -> FrozenSet[Var]:
        raise NotImplementedError

    def constants(self) -> FrozenSet[object]:
        raise NotImplementedError

    def substitute(self, valuation: Dict[Var, object]) -> "UpdateAtom":
        raise NotImplementedError


@dataclass(frozen=True)
class Insertion(UpdateAtom):
    """An insertion atom ``+R@p(x̄)`` with terms over ``att(R@p)``."""

    view: View
    terms: PyTuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.terms) != len(self.view.attributes):
            raise RuleError(
                f"insertion into {self.view.name} has {len(self.terms)} terms; "
                f"expected {len(self.view.attributes)}"
            )
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def key_term(self) -> Term:
        return self.terms[self.view.attributes.index(self.view.relation.key_attribute)]

    def variables(self) -> FrozenSet[Var]:
        return frozenset(t for t in self.terms if is_var(t))

    def constants(self) -> FrozenSet[object]:
        return frozenset(
            t.value for t in self.terms if isinstance(t, Const) and not is_null(t.value)
        )

    def substitute(self, valuation: Dict[Var, object]) -> "Insertion":
        return Insertion(
            self.view, tuple(Const(term_value(t, valuation)) for t in self.terms)
        )

    def __repr__(self) -> str:
        return f"+{self.view.name}({', '.join(map(repr, self.terms))})"


@dataclass(frozen=True)
class Deletion(UpdateAtom):
    """A deletion atom ``−Key_R@p(x)``."""

    view: View
    term: Term

    @property
    def key_term(self) -> Term:
        return self.term

    def variables(self) -> FrozenSet[Var]:
        return frozenset({self.term}) if is_var(self.term) else frozenset()

    def constants(self) -> FrozenSet[object]:
        if isinstance(self.term, Const) and not is_null(self.term.value):
            return frozenset({self.term.value})
        return frozenset()

    def substitute(self, valuation: Dict[Var, object]) -> "Deletion":
        return Deletion(self.view, Const(term_value(self.term, valuation)))

    def __repr__(self) -> str:
        return f"-Key[{self.view.name}]({self.term!r})"


@dataclass(frozen=True)
class Rule:
    """A workflow rule ``Update :- Cond`` at a peer.

    The rule's peer is determined by its head atoms, which must all
    belong to the same peer; the body must likewise query only that
    peer's views.
    """

    name: str
    head: PyTuple[UpdateAtom, ...]
    body: Query

    def __post_init__(self) -> None:
        head = tuple(self.head)
        if not head:
            raise RuleError(f"rule {self.name}: head must contain at least one update")
        object.__setattr__(self, "head", head)
        # The variable sets are derived once here: every Event built for
        # the rule reads them, and rebuilding them per read dominated the
        # cost of constructing one.  They are attributes, not fields, so
        # equality, hashing and pickling (see __reduce__) stay field-based.
        head_vars = frozenset(var for atom in head for var in atom.variables())
        head_only = head_vars - self.body.variables()
        object.__setattr__(self, "_head_variables", head_vars)
        object.__setattr__(self, "_variables", head_vars | self.body.variables())
        object.__setattr__(self, "_head_only_variables", head_only)
        object.__setattr__(
            self,
            "_sorted_head_only",
            tuple(sorted(head_only, key=lambda v: v.name)),
        )
        peers = {atom.view.peer for atom in head}
        if len(peers) != 1:
            raise RuleError(f"rule {self.name}: head atoms span several peers {sorted(peers)}")
        peer = next(iter(peers))
        for literal in self.body.literals:
            view = getattr(literal, "view", None)
            if view is not None and view.peer != peer:
                raise RuleError(
                    f"rule {self.name}: body literal {literal!r} queries a view of "
                    f"peer {view.peer!r}, but the rule belongs to {peer!r}"
                )
        self._check_disjoint_updates()

    def __reduce__(self) -> PyTuple[object, ...]:
        return (type(self), (self.name, self.head, self.body))

    @property
    def peer(self) -> str:
        """The peer owning the rule."""
        return self.head[0].view.peer

    def _check_disjoint_updates(self) -> None:
        """Enforce that no two head updates can affect the same tuple.

        Keys must be distinct constants, or separated by a body
        inequality ``x ≠ x'``.  A key that is a *head-only* variable is
        exempt: the run semantics instantiates it with a globally fresh
        value, which is distinct from every other key by construction.
        """
        by_relation: Dict[str, List[UpdateAtom]] = {}
        for atom in self.head:
            by_relation.setdefault(atom.view.relation.name, []).append(atom)
        inequalities = {
            frozenset((cmp.left, cmp.right))
            for cmp in self.body.comparisons()
            if not cmp.positive
        }

        def is_fresh_key(term: Term) -> bool:
            return isinstance(term, Var) and term in self._head_only_variables

        for atoms in by_relation.values():
            for i, first in enumerate(atoms):
                for second in atoms[i + 1 :]:
                    x, y = first.key_term, second.key_term
                    if is_fresh_key(x) or is_fresh_key(y):
                        if x == y:
                            raise RuleError(
                                f"rule {self.name}: two updates of "
                                f"{first.view.relation.name} share the fresh key {x!r}"
                            )
                        continue
                    if isinstance(x, Const) and isinstance(y, Const):
                        if x.value == y.value:
                            raise RuleError(
                                f"rule {self.name}: two updates of "
                                f"{first.view.relation.name} share key {x.value!r}"
                            )
                        continue
                    if frozenset((x, y)) not in inequalities:
                        raise RuleError(
                            f"rule {self.name}: updates of {first.view.relation.name} "
                            f"with keys {x!r}, {y!r} require the body inequality "
                            f"{x!r} != {y!r}"
                        )

    # ------------------------------------------------------------------
    # Variables and constants
    # ------------------------------------------------------------------

    def head_variables(self) -> FrozenSet[Var]:
        return self._head_variables

    def body_variables(self) -> FrozenSet[Var]:
        return self.body.variables()

    def variables(self) -> FrozenSet[Var]:
        return self._variables

    def head_only_variables(self) -> FrozenSet[Var]:
        """Variables occurring in the head but not in the body.

        These must be instantiated with globally fresh values.
        """
        return self._head_only_variables

    @property
    def sorted_head_only_variables(self) -> PyTuple[Var, ...]:
        """The head-only variables sorted by name: the order in which
        enumeration mints their fresh values and the engine checks them."""
        return self._sorted_head_only

    def constants(self) -> FrozenSet[object]:
        out: Set[object] = set(self.body.constants())
        for atom in self.head:
            out.update(atom.constants())
        return frozenset(out)

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------

    def insertions(self) -> PyTuple[Insertion, ...]:
        return tuple(a for a in self.head if isinstance(a, Insertion))

    def deletions(self) -> PyTuple[Deletion, ...]:
        return tuple(a for a in self.head if isinstance(a, Deletion))

    def is_linear_head(self) -> bool:
        """True iff the head contains a single update (Section 6)."""
        return len(self.head) == 1

    def is_ground(self) -> bool:
        """True iff the rule contains no variables."""
        return not self.variables()

    def deletion_has_witness(self, deletion: Deletion) -> bool:
        """True iff the body contains a literal ``R@q(x, u)`` for the deletion.

        This is condition (i) of the normal form: deletions must be
        witnessed by a positive body literal on the same key term.
        """
        for literal in self.body.positive_literals():
            if (
                isinstance(literal, RelLiteral)
                and literal.view.relation.name == deletion.view.relation.name
                and literal.view.peer == deletion.view.peer
                and literal.key_term == deletion.term
            ):
                return True
        return False

    def __repr__(self) -> str:
        head = ", ".join(repr(a) for a in self.head)
        body = repr(self.body) if self.body.literals else ""
        return f"[{self.name}] {head} :- {body}"
