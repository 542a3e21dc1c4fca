"""Full conjunctive queries with negation (FCQ¬) over peer view schemas.

A rule body is an FCQ¬ query over ``D@p``: a conjunction of literals of
the form ``(¬)R@p(x̄)``, ``(¬)Key_R@p(y)``, ``x = y`` or ``x ≠ y``, where
every variable occurs in some positive relational literal (the safety
condition).  Queries are *full*: a valuation assigns every variable, and
evaluation returns all valuations satisfying the body on a peer's view
instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple as PyTuple, Union

from .domain import NULL, is_null
from .errors import QueryError
from .evalstats import EVAL_STATS
from .instance import Instance
from .tuples import Tuple
from .views import View, ViewProbe

# ----------------------------------------------------------------------
# Terms
# ----------------------------------------------------------------------


class Var(tuple):
    """A variable term.

    A ``tuple`` subclass rather than a dataclass: valuations are dicts
    keyed by variables, and on the evaluation hot paths (the naive
    evaluator's unify steps, the compiled closures' emitted
    valuations) every dict insertion hashes its key.  Tuple's C-level
    hash avoids a Python ``__hash__`` frame per insertion — measurably
    the dominant cost of emitting large valuation sets.  Equality and pickling follow the
    wrapped 1-tuple; ``Var("x") == Var("x")`` and never equals a
    :class:`Const`.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Var":
        return tuple.__new__(cls, (name,))

    def __getnewargs__(self) -> PyTuple[str, ...]:
        return (self[0],)

    @property
    def name(self) -> str:
        return self[0]

    def __repr__(self) -> str:
        return self[0]


@dataclass(frozen=True)
class Const:
    """A constant term (the constant may be ``⊥``)."""

    value: object

    def __repr__(self) -> str:
        return repr(self.value)


Term = object  # Var | Const


def is_var(term: Term) -> bool:
    return isinstance(term, Var)


def term_value(term: Term, valuation: Dict[Var, object]) -> object:
    """The value of *term* under *valuation* (constants evaluate to themselves)."""
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        if term not in valuation:
            raise QueryError(f"unbound variable {term!r}")
        return valuation[term]
    raise QueryError(f"not a term: {term!r}")


def _unify(term: Term, value: object, valuation: Dict[Var, object]) -> Optional[Dict[Var, object]]:
    """Extend *valuation* so that *term* evaluates to *value*, or None."""
    if isinstance(term, Const):
        if is_null(term.value):
            return valuation if is_null(value) else None
        return valuation if term.value == value else None
    bound = valuation.get(term, _UNBOUND)
    if bound is _UNBOUND:
        extended = dict(valuation)
        extended[term] = value
        return extended
    if is_null(bound) and is_null(value):
        return valuation
    return valuation if bound == value else None


class _Unbound:
    def __repr__(self) -> str:
        return "<unbound>"


_UNBOUND = _Unbound()

# ----------------------------------------------------------------------
# Literals
# ----------------------------------------------------------------------


class Literal:
    """Base class for body literals."""

    positive: bool

    def variables(self) -> FrozenSet[Var]:
        raise NotImplementedError

    def constants(self) -> FrozenSet[object]:
        raise NotImplementedError

    def substitute(self, valuation: Dict[Var, object]) -> "Literal":
        """The ground literal obtained by applying *valuation*."""
        raise NotImplementedError


@dataclass(frozen=True)
class RelLiteral(Literal):
    """A relational literal ``(¬) R@p(x̄)`` over view attributes."""

    view: View
    terms: PyTuple[Term, ...]
    positive: bool = True

    def __post_init__(self) -> None:
        if len(self.terms) != len(self.view.attributes):
            raise QueryError(
                f"literal over {self.view.name} has {len(self.terms)} terms; "
                f"expected {len(self.view.attributes)}"
            )
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def key_term(self) -> Term:
        """The term in the key position of the literal."""
        return self.terms[self.view.attributes.index(self.view.relation.key_attribute)]

    def variables(self) -> FrozenSet[Var]:
        return frozenset(t for t in self.terms if is_var(t))

    def constants(self) -> FrozenSet[object]:
        return frozenset(
            t.value for t in self.terms if isinstance(t, Const) and not is_null(t.value)
        )

    def substitute(self, valuation: Dict[Var, object]) -> "RelLiteral":
        return RelLiteral(
            self.view,
            tuple(Const(term_value(t, valuation)) for t in self.terms),
            self.positive,
        )

    def __repr__(self) -> str:
        sign = "" if self.positive else "not "
        return f"{sign}{self.view.name}({', '.join(map(repr, self.terms))})"


@dataclass(frozen=True)
class KeyLiteral(Literal):
    """A key literal ``(¬) Key_R@p(y)``."""

    view: View
    term: Term
    positive: bool = True

    def variables(self) -> FrozenSet[Var]:
        return frozenset({self.term}) if is_var(self.term) else frozenset()

    def constants(self) -> FrozenSet[object]:
        if isinstance(self.term, Const) and not is_null(self.term.value):
            return frozenset({self.term.value})
        return frozenset()

    def substitute(self, valuation: Dict[Var, object]) -> "KeyLiteral":
        return KeyLiteral(self.view, Const(term_value(self.term, valuation)), self.positive)

    def __repr__(self) -> str:
        sign = "" if self.positive else "not "
        return f"{sign}Key[{self.view.name}]({self.term!r})"


@dataclass(frozen=True)
class Comparison(Literal):
    """An (in)equality literal ``x = y`` or ``x ≠ y``."""

    left: Term
    right: Term
    positive: bool = True  # True: equality; False: inequality

    def variables(self) -> FrozenSet[Var]:
        return frozenset(t for t in (self.left, self.right) if is_var(t))

    def constants(self) -> FrozenSet[object]:
        return frozenset(
            t.value
            for t in (self.left, self.right)
            if isinstance(t, Const) and not is_null(t.value)
        )

    def holds(self, valuation: Dict[Var, object]) -> bool:
        left = term_value(self.left, valuation)
        right = term_value(self.right, valuation)
        if is_null(left) or is_null(right):
            equal = is_null(left) and is_null(right)
        else:
            equal = left == right
        return equal if self.positive else not equal

    def substitute(self, valuation: Dict[Var, object]) -> "Comparison":
        return Comparison(
            Const(term_value(self.left, valuation)),
            Const(term_value(self.right, valuation)),
            self.positive,
        )

    def __repr__(self) -> str:
        op = "=" if self.positive else "!="
        return f"{self.left!r} {op} {self.right!r}"


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------


class Query:
    """An FCQ¬ query: a conjunction of literals satisfying safety.

    Safety: every variable occurs in some *positive* relational literal
    (``R@p(x̄)`` or ``Key_R@p(y)``; a positive key literal is sugar for a
    relational literal with fresh variables).
    """

    def __init__(self, literals: Iterable[Literal]) -> None:
        self.literals: PyTuple[Literal, ...] = tuple(literals)
        self._hash: Optional[int] = None
        self._variables: Optional[FrozenSet[Var]] = None
        safe: Set[Var] = set()
        for lit in self.literals:
            if isinstance(lit, (RelLiteral, KeyLiteral)) and lit.positive:
                safe.update(lit.variables())
        unsafe = self.variables() - safe
        if unsafe:
            raise QueryError(
                f"unsafe variables {sorted(v.name for v in unsafe)}: every variable "
                "must occur in a positive relational literal"
            )

    def __eq__(self, other: object) -> bool:
        # Structural: queries (and the rules/events built from them)
        # must stay equal across a pickle round-trip, which worker
        # processes rely on when they hand search results back.
        return isinstance(other, Query) and self.literals == other.literals

    def __hash__(self) -> int:
        # Cached: the planner keys its plan cache by query on the hot
        # path, and the literal tuple is recursively hashed otherwise.
        cached = self._hash
        if cached is None:
            cached = hash(self.literals)
            self._hash = cached
        return cached

    def variables(self) -> FrozenSet[Var]:
        # Cached like the hash: rules and events read it on every build.
        cached = self._variables
        if cached is None:
            out: Set[Var] = set()
            for lit in self.literals:
                out.update(lit.variables())
            cached = frozenset(out)
            self._variables = cached
        return cached

    def constants(self) -> FrozenSet[object]:
        out: Set[object] = set()
        for lit in self.literals:
            out.update(lit.constants())
        return frozenset(out)

    def positive_literals(self) -> PyTuple[Literal, ...]:
        return tuple(
            lit
            for lit in self.literals
            if isinstance(lit, (RelLiteral, KeyLiteral)) and lit.positive
        )

    def negative_literals(self) -> PyTuple[Literal, ...]:
        return tuple(
            lit
            for lit in self.literals
            if isinstance(lit, (RelLiteral, KeyLiteral)) and not lit.positive
        )

    def comparisons(self) -> PyTuple[Comparison, ...]:
        return tuple(lit for lit in self.literals if isinstance(lit, Comparison))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def valuations(self, view_instance: Instance) -> Iterator[Dict[Var, object]]:
        """All valuations of the query's variables satisfying the body.

        *view_instance* is the peer's view instance ``I@p`` (its relations
        are named ``R@p``).  Evaluation routes through the process-wide
        backend switch (``REPRO_QUERY_BACKEND`` /
        :func:`~repro.workflow.planner.set_backend`): by default the
        compiled backend (:mod:`repro.workflow.compiler`) runs a
        specialized closure generated from the query's plan; ``naive``
        selects the declared-order reference evaluator.  The result
        *multiset* is identical across both; only the emission order may
        differ.
        """
        from . import planner  # deferred: planner imports this module

        if planner.query_backend() == "compiled":
            from . import compiler  # deferred: compiler imports this module

            return compiler.evaluate(self, view_instance)
        return self.valuations_naive(view_instance)

    def valuations_naive(self, view_instance: Instance) -> Iterator[Dict[Var, object]]:
        """Reference evaluation: backtracking join in declared literal
        order over the positive literals, then negative-literal and
        comparison filtering.  Kept as the semantic baseline the compiled
        backend is property-tested against (and as the fallback path)."""
        EVAL_STATS.naive_evals += 1
        yield from self._extend({}, list(self.positive_literals()), view_instance)

    def _extend(
        self,
        valuation: Dict[Var, object],
        remaining: List[Literal],
        inst: Instance,
    ) -> Iterator[Dict[Var, object]]:
        if not remaining:
            if self._filters_hold(valuation, inst):
                yield dict(valuation)
            return
        literal, rest = remaining[0], remaining[1:]
        if isinstance(literal, RelLiteral):
            for tup in inst.relation(literal.view.name):
                extended: Optional[Dict[Var, object]] = valuation
                for term, value in zip(literal.terms, tup.values):
                    extended = _unify(term, value, extended)
                    if extended is None:
                        break
                if extended is not None:
                    yield from self._extend(extended, rest, inst)
        elif isinstance(literal, KeyLiteral):
            for key in inst.keys(literal.view.name):
                extended = _unify(literal.term, key, valuation)
                if extended is not None:
                    yield from self._extend(extended, rest, inst)
        else:  # pragma: no cover - positive literals are relational only
            raise QueryError(f"unexpected positive literal {literal!r}")

    def _filters_hold(
        self, valuation: Dict[Var, object], inst: Union[Instance, ViewProbe]
    ) -> bool:
        for literal in self.negative_literals():
            if isinstance(literal, KeyLiteral):
                key = term_value(literal.term, valuation)
                if inst.has_key(literal.view.name, key):
                    return False
            elif isinstance(literal, RelLiteral):
                values = tuple(term_value(t, valuation) for t in literal.terms)
                target = Tuple(literal.view.attributes, values)
                # O(1): keys are unique, so membership is a lookup at the
                # target's key (a null key is never stored, answer False).
                if inst.contains_tuple(literal.view.name, target):
                    return False
        return all(cmp.holds(valuation) for cmp in self.comparisons())

    def satisfied_by(
        self, view_instance: Union[Instance, ViewProbe], valuation: Dict[Var, object]
    ) -> bool:
        """True iff the given complete *valuation* satisfies the body.

        Only keyed reads are made (``contains_tuple`` and ``has_key``, one
        per literal), so *view_instance* may be the materialized ``I@p``
        or the engine's read-through
        :meth:`~repro.workflow.views.CollaborativeSchema.view_probe`.
        """
        for literal in self.positive_literals():
            if isinstance(literal, RelLiteral):
                values = tuple(term_value(t, valuation) for t in literal.terms)
                target = Tuple(literal.view.attributes, values)
                if not view_instance.contains_tuple(literal.view.name, target):
                    return False
            elif isinstance(literal, KeyLiteral):
                key = term_value(literal.term, valuation)
                if not view_instance.has_key(literal.view.name, key):
                    return False
        return self._filters_hold(valuation, view_instance)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __repr__(self) -> str:
        return ", ".join(repr(lit) for lit in self.literals) if self.literals else "<empty>"


EMPTY_QUERY = Query(())
