"""Shapley-value attribution of provenance events to visible facts.

Which of a run's events actually *mattered* for a fact the observer can
see?  Provenance (:mod:`repro.obs.provenance`) answers "which events
touched it"; this module ranks them by their Shapley value — each
event's average marginal contribution to the target over every order in
which the run's events could be assembled, the classic fair-attribution
semantics (here following "Explainable Verification of Hierarchical
Workflows Mined from Event Logs with Shapley Values", PAPERS.md).

The characteristic function replays an event *subset* leniently: events
are applied in run order, and an event whose body or updates no longer
hold without its missing predecessors is skipped rather than failing
the coalition.  Two game shapes are provided:

* a **fact game** — 1.0 when the target ``(relation, key)`` is visible
  in the peer's view after the subset replay (or, with no key, the
  number of visible keys of the relation);
* a **view game** — how many of the full run's final visible tuples the
  subset reproduces.

Exact computation (:func:`shapley_values` with ``method="exact"``)
enumerates all ``2^n`` coalitions with :class:`fractions.Fraction`
weights, so the efficiency axiom ``sum(values) == v(N) - v(∅)`` holds
*exactly*.  For larger runs, seeded permutation sampling
(``method="sampled"``) averages marginal contributions along random
orders; each permutation's marginals telescope to ``v(N) - v(∅)``, so
efficiency again holds up to float rounding, and the standard error
shrinks as ``O(1/sqrt(samples))``.  ``method="auto"`` picks exact up to
``exact_limit`` players and sampling beyond.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..runtime.budget import ambient_checkpoint
from ..workflow.engine import apply_event
from ..workflow.errors import EventError
from ..workflow.instance import Instance
from ..workflow.runs import Run

__all__ = [
    "EXACT_HARD_LIMIT",
    "RankedEvent",
    "ShapleyReport",
    "fact_game",
    "shapley_rank",
    "shapley_values",
    "view_game",
]

#: ``method="exact"`` refuses above this many players (2^n coalitions).
EXACT_HARD_LIMIT = 16


def shapley_values(
    players: Sequence[int],
    value: Callable[[FrozenSet[int]], float],
    method: str = "auto",
    samples: int = 128,
    seed: int = 0,
    exact_limit: int = 12,
) -> Tuple[str, Dict[int, float]]:
    """Shapley values of *players* under characteristic function *value*.

    Returns ``(method_used, {player: value})``.  *value* must be
    memo-friendly (it is called on frozensets, many times); this function
    memoizes it internally so callers can pass a plain closure.  Raises
    :class:`ValueError` for an unknown *method* or *samples* below 1.
    """
    players = list(players)
    n = len(players)
    if method not in ("auto", "exact", "sampled"):
        raise ValueError(f"unknown Shapley method {method!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples}")
    if method == "auto":
        method = "exact" if n <= exact_limit else "sampled"
    if not players:
        return method, {}

    cache: Dict[FrozenSet[int], float] = {}

    def v(coalition: FrozenSet[int]) -> float:
        cached = cache.get(coalition)
        if cached is None:
            cached = float(value(coalition))
            cache[coalition] = cached
        return cached

    if method == "exact":
        if n > EXACT_HARD_LIMIT:
            raise ValueError(
                f"exact Shapley over {n} players needs 2^{n} coalitions; "
                f"use method='sampled' (hard limit {EXACT_HARD_LIMIT})"
            )
        totals: Dict[int, Fraction] = {p: Fraction(0) for p in players}
        n_fact = factorial(n)
        index = {p: i for i, p in enumerate(players)}
        for mask in range(1 << n):
            coalition = frozenset(p for p in players if mask >> index[p] & 1)
            size = len(coalition)
            if size == n:  # no player left to join
                continue
            base = v(coalition)
            weight = Fraction(factorial(size) * factorial(n - size - 1), n_fact)
            for p in players:
                if p in coalition:
                    continue
                marginal = Fraction(v(coalition | {p})) - Fraction(base)
                totals[p] += weight * marginal
        return "exact", {p: float(totals[p]) for p in players}

    rng = random.Random(seed)
    sums: Dict[int, float] = {p: 0.0 for p in players}
    empty = v(frozenset())
    for _ in range(samples):
        # Memoized coalitions cost no engine work, so poll the ambient
        # budget here too: a huge *samples* is bounded like a long run.
        ambient_checkpoint()
        order = players[:]
        rng.shuffle(order)
        coalition: set = set()
        previous = empty
        for p in order:
            coalition.add(p)
            current = v(frozenset(coalition))
            sums[p] += current - previous
            previous = current
    return "sampled", {p: sums[p] / samples for p in players}


# ----------------------------------------------------------------------
# Characteristic functions over lenient replay
# ----------------------------------------------------------------------


def _lenient_replay(run: Run, coalition: FrozenSet[int]) -> Instance:
    """Apply the coalition's events in run order, skipping inapplicable ones."""
    schema = run.program.schema
    instance = run.initial
    if instance is None:
        instance = Instance.empty(schema.schema)
    for index in sorted(coalition):
        try:
            instance = apply_event(
                schema, instance, run.events[index], forbidden_fresh=None
            )
        except EventError:
            continue
    return instance


def _visible_keys(run: Run, instance: Instance, peer: str, relation: str):
    view = run.program.schema.view_instance(instance, peer)
    name = f"{relation}@{peer}"
    if name not in view.schema.relation_names:
        raise KeyError(f"peer {peer!r} has no view of relation {relation!r}")
    return view.keys(name)


def _key_matches(candidate: object, key: object) -> bool:
    return candidate == key or repr(candidate) == str(key)


def fact_game(
    run: Run, peer: str, relation: str, key: Optional[object] = None
) -> Callable[[FrozenSet[int]], float]:
    """1.0 iff the target fact is visible (no key: count of visible keys)."""
    # Fail fast on an unknown relation before any coalition is replayed.
    _visible_keys(run, _lenient_replay(run, frozenset()), peer, relation)

    def value(coalition: FrozenSet[int]) -> float:
        keys = _visible_keys(run, _lenient_replay(run, coalition), peer, relation)
        if key is None:
            return float(len(keys))
        return 1.0 if any(_key_matches(k, key) for k in keys) else 0.0

    return value


def view_game(run: Run, peer: str) -> Callable[[FrozenSet[int]], float]:
    """How many of the final visible tuples the coalition reproduces."""
    schema = run.program.schema

    def rendered(instance: Instance) -> set:
        view = schema.view_instance(instance, peer)
        return {
            (name, repr(t))
            for name in view.schema.relation_names
            for t in view.relation(name)
        }

    target = rendered(run.final_instance)

    def value(coalition: FrozenSet[int]) -> float:
        return float(len(rendered(_lenient_replay(run, coalition)) & target))

    return value


# ----------------------------------------------------------------------
# Ranked reports
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RankedEvent:
    """One event's attribution toward the target."""

    position: int
    rule: str
    peer: str
    value: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "position": self.position,
            "rule": self.rule,
            "peer": self.peer,
            "value": self.value,
        }


@dataclass(frozen=True)
class ShapleyReport:
    """Shapley attributions of a run's events toward one target."""

    peer: str
    target: str
    method: str
    samples: int
    seed: int
    baseline: float  # v(empty coalition)
    grand: float  # v(all events)
    attributions: Tuple[RankedEvent, ...]  # in event order

    def total(self) -> float:
        """Sum of attributions; equals ``grand - baseline`` (efficiency)."""
        return sum(entry.value for entry in self.attributions)

    def ranking(self) -> Tuple[RankedEvent, ...]:
        """Most important first; ties broken by run position."""
        return tuple(
            sorted(self.attributions, key=lambda e: (-e.value, e.position))
        )

    def top(self, count: int) -> Tuple[int, ...]:
        """The positions of the *count* highest-value events."""
        return tuple(entry.position for entry in self.ranking()[:count])

    def to_dict(self) -> Dict[str, object]:
        return {
            "peer": self.peer,
            "target": self.target,
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
            "baseline": self.baseline,
            "grand": self.grand,
            "total": self.total(),
            "ranking": [entry.to_dict() for entry in self.ranking()],
        }


def shapley_rank(
    run: Run,
    peer: str,
    relation: Optional[str] = None,
    key: Optional[object] = None,
    method: str = "auto",
    samples: int = 128,
    seed: int = 0,
    exact_limit: int = 12,
) -> ShapleyReport:
    """Rank *run*'s events by Shapley contribution to a visible target.

    With *relation* (and optionally *key*) the target is that fact in
    *peer*'s view (the fact game); without, the target is the peer's
    whole final view (the view game).  Deterministic given ``seed``.
    """
    if key is not None and relation is None:
        raise ValueError("a target key needs a target relation")
    if peer not in run.program.schema.peers:
        raise KeyError(f"unknown peer {peer!r}")
    if relation is not None:
        value = fact_game(run, peer, relation, key)
        target = relation if key is None else f"{relation}[{key}]"
    else:
        value = view_game(run, peer)
        target = "view"
    players = list(range(len(run.events)))
    method_used, values = shapley_values(
        players,
        value,
        method=method,
        samples=samples,
        seed=seed,
        exact_limit=exact_limit,
    )
    attributions = tuple(
        RankedEvent(
            position=index,
            rule=run.events[index].rule.name,
            peer=run.events[index].rule.peer,
            value=values[index],
        )
        for index in players
    )
    return ShapleyReport(
        peer=peer,
        target=f"{target}@{peer}",
        method=method_used,
        samples=samples if method_used == "sampled" else 0,
        seed=seed,
        baseline=value(frozenset()),
        grand=value(frozenset(players)),
        attributions=attributions,
    )
