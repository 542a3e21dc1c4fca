"""The data domain ``dom`` of the workflow model.

The model of the paper assumes an infinite data domain ``dom`` with a
distinguished element ``⊥`` (undefined), and an infinite supply of fresh
values used to instantiate head-only variables of rules.  We realise
``dom`` as the set of hashable Python values, ``⊥`` as the singleton
:data:`NULL`, and fresh values as instances of :class:`FreshValue` minted
by a :class:`FreshValueSource`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Set


class _Null:
    """The distinguished undefined value ``⊥`` (a singleton)."""

    _instance = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __copy__(self) -> "_Null":
        return self

    def __deepcopy__(self, memo: dict) -> "_Null":
        return self

    def __reduce__(self):
        return (_Null, ())


#: The distinguished undefined value ``⊥`` of the paper.
NULL = _Null()


def is_null(value: object) -> bool:
    """Return True iff *value* is the undefined value ``⊥``."""
    return value is NULL


@dataclass(frozen=True, order=True)
class FreshValue:
    """A globally fresh value minted for a head-only variable.

    Fresh values compare equal only to themselves, are hashable, and carry
    a sequence number so runs are reproducible.
    """

    index: int

    def __repr__(self) -> str:
        return f"ν{self.index}"  # ν17


class FreshValueSource:
    """Mints fresh values that never collide with previously seen ones.

    The run semantics requires a head-only variable to be instantiated
    with a *globally fresh* value: one not occurring in ``const(P)`` nor
    in any earlier instance of the run.  The source mints candidates in
    increasing index order, so it never hands out a value twice, and
    skips every value it has been told about via :meth:`observe` and
    every value in *used*.

    *used* is read by reference, never copied or mutated: a hosted run
    passes the set of values it has used, together with *start* at the
    lowest index that set does not hold, so minting costs one lookup per
    candidate instead of a scan of the run.
    """

    def __init__(self, start: int = 0, used: AbstractSet[object] = frozenset()) -> None:
        self._next = start
        self._seen: Set[object] = set()
        self._used = used

    def observe(self, values: Iterable[object]) -> None:
        """Record *values* as used, so they are never minted as fresh."""
        self._seen.update(values)

    def fresh(self) -> FreshValue:
        """Return a value distinct from every value observed so far."""
        while True:
            candidate = FreshValue(self._next)
            self._next += 1
            if candidate not in self._seen and candidate not in self._used:
                return candidate

    def stream(self) -> Iterator[FreshValue]:
        """Yield an endless stream of fresh values."""
        while True:
            yield self.fresh()
