"""Workflow programs and specifications.

A collaborative workflow specification consists of a collaborative schema
and a workflow program: a finite set of update rules per peer.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple as PyTuple

from .domain import NULL
from .errors import RuleError, SchemaError
from .queries import KeyLiteral, RelLiteral
from .rules import Deletion, Rule
from .views import CollaborativeSchema


class WorkflowProgram:
    """A workflow program ``P`` over a collaborative schema.

    >>> # A propositional one-rule program:
    >>> from repro.workflow.schema import Schema, proposition
    >>> from repro.workflow.views import CollaborativeSchema, View
    >>> from repro.workflow.rules import Insertion, Rule
    >>> from repro.workflow.queries import Const, Query
    >>> OK = proposition("OK")
    >>> S = CollaborativeSchema(Schema([OK]), ["p"], [View(OK, "p", ("K",))])
    >>> P = WorkflowProgram(S, [Rule("r", (Insertion(S.view("OK", "p"), (Const(0),)),),
    ...                              Query(()))])
    >>> P.rules_of_peer("p")[0].name
    'r'
    """

    def __init__(self, schema: CollaborativeSchema, rules: Iterable[Rule]) -> None:
        self.schema = schema
        self.rules: PyTuple[Rule, ...] = tuple(rules)
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise RuleError(f"duplicate rule names: {sorted(names)}")
        for rule in self.rules:
            if rule.peer not in schema.peers:
                raise SchemaError(f"rule {rule.name} belongs to unknown peer {rule.peer!r}")
            for atom in rule.head:
                declared = schema.view(atom.view.relation.name, atom.view.peer)
                if declared != atom.view:
                    raise SchemaError(
                        f"rule {rule.name}: head atom {atom!r} uses a view that is "
                        "not part of the collaborative schema"
                    )
            for literal in rule.body.literals:
                view = getattr(literal, "view", None)
                if view is not None and schema.view(view.relation.name, view.peer) != view:
                    raise SchemaError(
                        f"rule {rule.name}: body literal {literal!r} uses a view that "
                        "is not part of the collaborative schema"
                    )
        self._by_peer: Dict[str, List[Rule]] = {}
        for rule in self.rules:
            self._by_peer.setdefault(rule.peer, []).append(rule)
        self._by_name: Dict[str, Rule] = {rule.name: rule for rule in self.rules}
        self._constants: Optional[FrozenSet[object]] = None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def rules_of_peer(self, peer: str) -> PyTuple[Rule, ...]:
        return tuple(self._by_peer.get(peer, ()))

    def rule(self, name: str) -> Rule:
        try:
            return self._by_name[name]
        except KeyError:
            raise RuleError(f"program has no rule named {name!r}") from None

    @property
    def peers(self) -> PyTuple[str, ...]:
        return self.schema.peers

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    # ------------------------------------------------------------------
    # Program-level properties
    # ------------------------------------------------------------------

    def constants(self) -> FrozenSet[object]:
        """``const(P)``: constants used in the program, plus ``⊥``.

        Cached: every enumeration of applicable events seeds its fresh
        source with it.
        """
        if self._constants is None:
            out: Set[object] = {NULL}
            for rule in self.rules:
                out.update(rule.constants())
            self._constants = frozenset(out)
        return self._constants

    def max_head_size(self) -> int:
        """Maximum number of updates in a rule head (``M`` in Section 5)."""
        return max((len(rule.head) for rule in self.rules), default=0)

    def max_body_size(self) -> int:
        """Maximum number of literals in a rule body (``b`` in Thm 6.3)."""
        return max((len(rule.body) for rule in self.rules), default=0)

    def is_linear_head(self) -> bool:
        """True iff every rule has a single update in its head."""
        return all(rule.is_linear_head() for rule in self.rules)

    def is_normal_form(self) -> bool:
        """True iff the program is in normal form (Section 2).

        (i) every deletion in a head is witnessed by a positive body
        literal on the same key term; (ii) bodies contain no negative
        relational literals and no positive key literals.
        """
        for rule in self.rules:
            for deletion in rule.deletions():
                if not rule.deletion_has_witness(deletion):
                    return False
            for literal in rule.body.literals:
                if isinstance(literal, RelLiteral) and not literal.positive:
                    return False
                if isinstance(literal, KeyLiteral) and literal.positive:
                    return False
        return True

    def with_rules(self, rules: Iterable[Rule]) -> "WorkflowProgram":
        """A new program over the same schema with *rules*."""
        return WorkflowProgram(self.schema, rules)

    def extend(self, extra: Iterable[Rule]) -> "WorkflowProgram":
        """A new program with the rules of this one plus *extra*."""
        return WorkflowProgram(self.schema, tuple(self.rules) + tuple(extra))

    def __repr__(self) -> str:
        lines = [f"WorkflowProgram({len(self.rules)} rules)"]
        lines.extend(f"  {rule!r}" for rule in self.rules)
        return "\n".join(lines)
