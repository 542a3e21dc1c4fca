"""Tuples over (subsets of) relation attributes.

A tuple over a relation ``R`` is a mapping from ``att(R)`` to ``dom``.
Peer views see tuples over a subset of ``att(R)``; the padding operation
``J^⊥`` extends such tuples back to the full attribute set with ``⊥``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple as PyTuple

from .domain import NULL, is_null
from .errors import SchemaError


class Tuple:
    """An immutable tuple over an explicit attribute sequence.

    The attribute sequence is carried with the tuple so the same class
    serves tuples over full relations and over view projections.  By the
    key convention of :mod:`repro.workflow.schema`, the first attribute
    is the key.

    >>> t = Tuple(("K", "A", "B"), (1, "x", NULL))
    >>> t["A"]
    'x'
    >>> t.key
    1
    """

    __slots__ = ("attributes", "values", "_hash")

    def __init__(self, attributes: Sequence[str], values: Sequence[object]) -> None:
        attributes = tuple(attributes)
        values = tuple(values)
        if len(attributes) != len(values):
            raise SchemaError(
                f"tuple arity mismatch: attributes {attributes} vs values {values}"
            )
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_hash", hash((attributes, values)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Tuple is immutable")

    @classmethod
    def from_mapping(cls, attributes: Sequence[str], mapping: Mapping[str, object]) -> "Tuple":
        """Build a tuple over *attributes*, defaulting missing ones to ``⊥``."""
        return cls(attributes, tuple(mapping.get(a, NULL) for a in attributes))

    @property
    def key(self) -> object:
        """The value of the key attribute (first position)."""
        return self.values[0]

    def __getitem__(self, attribute: str) -> object:
        try:
            return self.values[self.attributes.index(attribute)]
        except ValueError:
            raise SchemaError(f"tuple over {self.attributes} has no attribute {attribute!r}") from None

    def get(self, attribute: str, default: object = NULL) -> object:
        if attribute in self.attributes:
            return self[attribute]
        return default

    def as_dict(self) -> Dict[str, object]:
        return dict(zip(self.attributes, self.values))

    def replace(self, **changes: object) -> "Tuple":
        """A copy of the tuple with some attribute values replaced."""
        mapping = self.as_dict()
        for attr, value in changes.items():
            if attr not in mapping:
                raise SchemaError(f"tuple over {self.attributes} has no attribute {attr!r}")
            mapping[attr] = value
        return Tuple(self.attributes, tuple(mapping[a] for a in self.attributes))

    def project(self, attributes: Sequence[str]) -> "Tuple":
        """The projection ``π_attributes`` of the tuple."""
        return Tuple(tuple(attributes), tuple(self[a] for a in attributes))

    def pad(self, attributes: Sequence[str]) -> "Tuple":
        """The padding ``t^⊥``: extend to *attributes*, filling with ``⊥``.

        Attributes the tuple already has keep their values; others get ⊥.
        """
        return Tuple(
            tuple(attributes),
            tuple(self[a] if a in self.attributes else NULL for a in attributes),
        )

    def subsumed_by(self, other: "Tuple") -> bool:
        """True iff *other* agrees with this tuple on every non-⊥ value.

        Both tuples must range over the same attribute sequence.  This is
        the subsumption used in the insertion semantics: the inserted
        tuple ``u`` must be subsumed by some tuple of the peer's view
        after the update.
        """
        if self.attributes != other.attributes:
            return False
        return all(
            is_null(mine) or mine == theirs
            for mine, theirs in zip(self.values, other.values)
        )

    def merge(self, other: "Tuple") -> "Tuple":
        """Chase-merge two tuples with the same key and attributes.

        Null values are filled from the other tuple.  Raises ValueError if
        the tuples conflict (distinct non-null values on an attribute) —
        callers translate this into a :class:`ChaseFailure`.
        """
        if self.attributes != other.attributes:
            raise SchemaError("cannot merge tuples over different attribute sequences")
        merged = []
        for attr, mine, theirs in zip(self.attributes, self.values, other.values):
            if is_null(mine):
                merged.append(theirs)
            elif is_null(theirs) or mine == theirs:
                merged.append(mine)
            else:
                raise ValueError(
                    f"conflict on attribute {attr!r}: {mine!r} vs {theirs!r}"
                )
        return Tuple(self.attributes, tuple(merged))

    def conflicts_with(self, other: "Tuple") -> bool:
        """True iff the two tuples disagree on some non-null attribute."""
        try:
            self.merge(other)
        except ValueError:
            return True
        return False

    def non_null_attributes(self) -> PyTuple[str, ...]:
        return tuple(a for a, v in zip(self.attributes, self.values) if not is_null(v))

    def filled_by(self, other: "Tuple") -> PyTuple[str, ...]:
        """The attributes ⊥ here and not ⊥ in *other* (over the same
        attributes): what a chase merge into this tuple filled in."""
        return tuple(
            a
            for a, mine, theirs in zip(self.attributes, self.values, other.values)
            if is_null(mine) and not is_null(theirs)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tuple)
            and self.attributes == other.attributes
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> PyTuple:
        # The immutability guard blocks the default slot-state restore,
        # and rebuilding through the constructor recomputes the cached
        # hash under the destination process's hash seed.
        return (Tuple, (self.attributes, self.values))

    def __iter__(self) -> Iterator[object]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        inside = ", ".join(f"{a}={v!r}" for a, v in zip(self.attributes, self.values))
        return f"({inside})"
