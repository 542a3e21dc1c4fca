"""Value isomorphisms of instances, events and runs (Lemma A.2).

The appendix lemmas rest on invariance under bijective renamings of the
data domain that fix ``const(P)``: if ``f`` is such a bijection and
``α`` is applicable at ``I``, then ``f(α)`` is applicable at ``f(I)``
with ``f(α(I)) = f(α)(f(I))``, visibility is preserved, and minimum
p-faithfulness is preserved.  This module applies renamings to model
objects and decides whether two instances/runs are isomorphic, which
the tests use to validate the lemmas directly and the bounded decision
procedures rely on implicitly (canonical constant pools).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple as PyTuple

from .domain import is_null
from .errors import WorkflowError
from .events import Event
from .instance import Instance
from .program import WorkflowProgram
from .queries import Const, Var
from .runs import Run
from .tuples import Tuple


class Renaming:
    """A bijection on ``dom`` given by a finite mapping (identity elsewhere).

    The mapping must be injective; ``⊥`` cannot be renamed.

    >>> f = Renaming({1: "a", 2: "b"})
    >>> f(1), f(3)
    ('a', 3)
    """

    def __init__(self, mapping: Mapping[object, object]) -> None:
        values = list(mapping.values())
        if len(set(map(repr, values))) != len(values):
            raise WorkflowError("a renaming must be injective")
        for source, target in mapping.items():
            if is_null(source) or is_null(target):
                raise WorkflowError("⊥ cannot participate in a renaming")
        self._mapping = dict(mapping)

    def __call__(self, value: object) -> object:
        if is_null(value):
            return value
        return self._mapping.get(value, value)

    def inverse(self) -> "Renaming":
        return Renaming({v: k for k, v in self._mapping.items()})

    def fixes(self, values: Iterable[object]) -> bool:
        """Is the renaming the identity on *values* (e.g. ``const(P)``)?"""
        return all(self(value) == value for value in values)

    def items(self) -> PyTuple[PyTuple[object, object], ...]:
        return tuple(self._mapping.items())

    def __repr__(self) -> str:
        inside = ", ".join(f"{k!r}→{v!r}" for k, v in self._mapping.items())
        return f"Renaming({inside})"


def rename_tuple(renaming: Renaming, tup: Tuple) -> Tuple:
    return Tuple(tup.attributes, tuple(renaming(value) for value in tup.values))


def rename_instance(renaming: Renaming, instance: Instance) -> Instance:
    """``f(I)``: apply the renaming to every value of the instance."""
    data = {
        relation.name: [rename_tuple(renaming, t) for t in instance.relation(relation.name)]
        for relation in instance.schema
    }
    return Instance.from_tuples(instance.schema, data)


def rename_event(renaming: Renaming, event: Event) -> Event:
    """``f(e)``: apply the renaming to the event's valuation."""
    return Event(
        event.rule, {var: renaming(value) for var, value in event.valuation}
    )


def rename_events(renaming: Renaming, events: Sequence[Event]) -> List[Event]:
    return [rename_event(renaming, event) for event in events]


def rename_run(renaming: Renaming, run: Run) -> Run:
    """``f(ρ)``: rename the initial instance, events and instances."""
    return Run(
        run.program,
        rename_instance(renaming, run.initial),
        rename_events(renaming, run.events),
        [rename_instance(renaming, instance) for instance in run.instances],
    )


def find_instance_isomorphism(
    left: Instance,
    right: Instance,
    fixed: Iterable[object] = (),
    max_values: int = 12,
) -> Optional[Renaming]:
    """A renaming ``f`` with ``f(left) = right`` fixing *fixed*, if any.

    Exhaustive over the active domains (worst case factorial), guarded
    by *max_values*; intended for the small canonical instances of the
    bounded procedures and for tests.
    """
    fixed_set = set(fixed)
    left_values = sorted(left.active_domain() - fixed_set, key=repr)
    right_values = sorted(right.active_domain() - fixed_set, key=repr)
    if len(left_values) != len(right_values):
        return None
    if len(left_values) > max_values:
        raise WorkflowError(
            f"isomorphism search over {len(left_values)} values exceeds the "
            f"cap of {max_values}"
        )
    for permutation in itertools.permutations(right_values):
        mapping = dict(zip(left_values, permutation))
        renaming = Renaming(mapping)
        if rename_instance(renaming, left) == right:
            return renaming
    return None


def instances_isomorphic(
    left: Instance, right: Instance, fixed: Iterable[object] = ()
) -> bool:
    """Are the instances equal up to a renaming fixing *fixed*?"""
    return find_instance_isomorphism(left, right, fixed) is not None


def _placeholder(index: int) -> object:
    return f"≡{index}"


def _relations_by_name(
    instance: Instance,
) -> List[PyTuple[str, Mapping[object, Tuple]]]:
    """``(name, rows)`` of every non-empty relation, ordered by name."""
    out = []
    for relation in instance.schema.relations:
        rows = instance.rows(relation.name)
        if rows:
            out.append((relation.name, rows))
    out.sort(key=lambda item: item[0])
    return out


def _canonical_renaming(
    relations: Sequence[PyTuple[str, Mapping[object, Tuple]]],
    fixed: Iterable[object],
    make_value: Callable[[int], object],
) -> Dict[object, object]:
    """Lemma A.2's canonical renaming of the values outside *fixed*.

    The sort rule: facts are ordered by relation name, then by the
    pattern of their positions (``⊥`` first, then values of *fixed* by
    ``repr``, then every other value); facts with equal patterns keep
    their insertion order.  Values outside *fixed* are mapped to
    ``make_value(0)``, ``make_value(1)``, ... in order of first
    appearance along that sequence.
    """
    fixed_set = fixed if isinstance(fixed, (set, frozenset)) else set(fixed)

    def pattern(values: PyTuple) -> PyTuple:
        return tuple(
            (0, "")
            if is_null(value)
            else (1, repr(value))
            if value in fixed_set
            else (3, "")
            for value in values
        )

    renaming_map: Dict[object, object] = {}
    for _, rows in relations:
        facts = [tup.values for tup in rows.values()]
        if len(facts) > 1:
            facts.sort(key=pattern)
        for values in facts:
            for value in values:
                if is_null(value) or value in fixed_set or value in renaming_map:
                    continue
                renaming_map[value] = make_value(len(renaming_map))
    return renaming_map


def canonicalize_instance(
    instance: Instance,
    fixed: Iterable[object] = (),
    make_value: Optional[Callable[[int], object]] = None,
) -> Instance:
    """A canonical representative of the instance's isomorphism class.

    Values outside *fixed* are renamed to canonical placeholders in
    first-appearance order over a sorted fact rendering, so isomorphic
    instances map to equal canonical forms whenever their value-equality
    patterns determine a unique ordering (sufficient for the keyed
    canonical instances used by the bounded procedures).
    """
    renaming = _canonical_renaming(
        _relations_by_name(instance), fixed, make_value or _placeholder
    )
    return rename_instance(Renaming(renaming), instance)


def canonical_key(instance: Instance, fixed: Iterable[object] = ()) -> PyTuple:
    """``canonicalize_instance(instance, fixed)`` as a hashable value.

    For each non-empty relation, by name, the name and the frozenset of
    its renamed value tuples.  Two instances over one schema have equal
    keys exactly when their canonical instances are equal, and no
    :class:`Instance` is built: state-space deduplication takes one key
    per successor.
    """
    relations = _relations_by_name(instance)
    rename = _canonical_renaming(relations, fixed, _placeholder).get
    return tuple(
        (
            name,
            frozenset(
                tuple(map(rename, tup.values, tup.values)) for tup in rows.values()
            ),
        )
        for name, rows in relations
    )
