"""Serialization: unparse programs, export and replay runs.

* :func:`program_to_text` renders a :class:`WorkflowProgram` back into
  the textual syntax of :mod:`repro.workflow.parser`, such that parsing
  the result yields an equivalent program (same schema, views and
  rules) — the inverse of :func:`~repro.workflow.parser.parse_program`.
* :func:`run_to_dict` / :func:`run_from_dict` export a run as a
  JSON-compatible structure (rule names plus valuations) and replay it
  against a program, enabling audit logs and cross-process transport of
  runs without pickling.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from .conditions import (
    FALSE,
    TRUE,
    And,
    AttrEq,
    Condition,
    Eq,
    Not,
    Or,
)
from .domain import NULL, FreshValue, is_null
from .errors import WorkflowError
from .events import Event
from .instance import Instance
from .program import WorkflowProgram
from .queries import Comparison, Const, KeyLiteral, RelLiteral, Term, Var
from .rules import Deletion, Insertion, Rule
from .runs import Run, execute
from .views import View


class SerializationError(WorkflowError):
    """A value or construct cannot be represented in the target format."""


# ----------------------------------------------------------------------
# Program -> text
# ----------------------------------------------------------------------


def _render_value(value: object) -> str:
    """A constant in the textual syntax (null, int, or quoted string)."""
    if is_null(value):
        return "null"
    if isinstance(value, bool):
        raise SerializationError("booleans have no textual constant syntax")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        if "'" in value or '"' in value or "\n" in value:
            raise SerializationError(f"string constant {value!r} contains quotes")
        return f"'{value}'"
    raise SerializationError(f"constant {value!r} has no textual syntax")


def _render_term(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Const):
        return _render_value(term.value)
    raise SerializationError(f"not a term: {term!r}")


def render_condition(condition: Condition) -> str:
    """A selection condition in the ``where`` clause syntax."""
    if condition == TRUE:
        return "true"
    if condition == FALSE:
        return "false"
    if isinstance(condition, Eq):
        return f"{condition.attribute} = {_render_value(condition.constant)}"
    if isinstance(condition, AttrEq):
        return f"{condition.left} = {condition.right}"
    if isinstance(condition, Not):
        return f"not ({render_condition(condition.inner)})"
    if isinstance(condition, And):
        if not condition.parts:
            return "true"
        return " and ".join(f"({render_condition(p)})" for p in condition.parts)
    if isinstance(condition, Or):
        if not condition.parts:
            return "false"
        return " or ".join(f"({render_condition(p)})" for p in condition.parts)
    raise SerializationError(f"condition {condition!r} has no textual syntax")


def _render_view(view: View) -> str:
    attrs = ", ".join(view.attributes)
    line = f"view {view.relation.name}@{view.peer}({attrs})"
    if view.selection != TRUE:
        line += f" where {render_condition(view.selection)}"
    return line


def _render_literal(literal: object) -> str:
    if isinstance(literal, RelLiteral):
        terms = ", ".join(_render_term(t) for t in literal.terms)
        atom = f"{literal.view.relation.name}@{literal.view.peer}({terms})"
        return atom if literal.positive else f"not {atom}"
    if isinstance(literal, KeyLiteral):
        atom = (
            f"Key[{literal.view.relation.name}]@{literal.view.peer}"
            f"({_render_term(literal.term)})"
        )
        return atom if literal.positive else f"not {atom}"
    if isinstance(literal, Comparison):
        op = "=" if literal.positive else "!="
        return f"{_render_term(literal.left)} {op} {_render_term(literal.right)}"
    raise SerializationError(f"literal {literal!r} has no textual syntax")


def _render_rule(rule: Rule) -> str:
    head_parts: List[str] = []
    for atom in rule.head:
        if isinstance(atom, Insertion):
            terms = ", ".join(_render_term(t) for t in atom.terms)
            head_parts.append(f"+{atom.view.relation.name}@{atom.view.peer}({terms})")
        elif isinstance(atom, Deletion):
            head_parts.append(
                f"-Key[{atom.view.relation.name}]@{atom.view.peer}"
                f"({_render_term(atom.term)})"
            )
    body = ", ".join(_render_literal(lit) for lit in rule.body.literals)
    return f"[{rule.name}] {', '.join(head_parts)} :- {body}".rstrip()


def program_to_text(program: WorkflowProgram) -> str:
    """Unparse *program* into the textual syntax.

    Rule names must be plain identifiers for the round trip to succeed
    (auto-generated and paper-example names all are).

    >>> # text = program_to_text(program)
    >>> # parse_program(text)  # equivalent program
    """
    schema = program.schema
    lines: List[str] = ["peers " + ", ".join(schema.peers)]
    for relation in schema.schema:
        lines.append(f"relation {relation.name}({', '.join(relation.attributes)})")
    for view in schema.all_views():
        lines.append(_render_view(view))
    for rule in program:
        lines.append(_render_rule(rule))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Values <-> JSON
# ----------------------------------------------------------------------


def value_to_json(value: object) -> Any:
    """Encode a domain value as a JSON-compatible structure."""
    if is_null(value):
        return {"$null": True}
    if isinstance(value, FreshValue):
        return {"$fresh": value.index}
    if isinstance(value, (str, int, float, bool)):
        return value
    raise SerializationError(f"value {value!r} is not JSON-serialisable")


def value_from_json(data: Any) -> object:
    """Decode :func:`value_to_json` output; :class:`SerializationError` if malformed."""
    if isinstance(data, dict):
        if data.get("$null"):
            return NULL
        if "$fresh" in data:
            try:
                return FreshValue(int(data["$fresh"]))
            except (TypeError, ValueError):
                raise SerializationError(f"malformed fresh value {data!r}") from None
        raise SerializationError(f"unknown tagged value {data!r}")
    if data is None or isinstance(data, list):
        raise SerializationError(f"value {data!r} is not a domain value")
    return data


# ----------------------------------------------------------------------
# Runs <-> JSON-compatible dicts
# ----------------------------------------------------------------------


def event_to_dict(event: Event) -> Dict[str, Any]:
    """Encode an event as ``{"rule": name, "valuation": {...}}``."""
    return {
        "rule": event.rule.name,
        "valuation": {
            var.name: value_to_json(value) for var, value in event.valuation
        },
    }


def event_from_dict(program: WorkflowProgram, data: Dict[str, Any]) -> Event:
    """Decode :func:`event_to_dict` output against *program*.

    Raises :class:`SerializationError` when *data* is not an event
    encoding (no ``rule``, a ``valuation`` that is not an object, ...).
    """
    try:
        rule = program.rule(data["rule"])
        valuation = {
            Var(name): value_from_json(value)
            for name, value in data.get("valuation", {}).items()
        }
    except (AttributeError, KeyError, TypeError) as exc:
        raise SerializationError(f"malformed event encoding: {exc!r}") from None
    return Event(rule, valuation)


def instance_to_dict(instance: Instance) -> Dict[str, Any]:
    """Encode an instance as relation -> list of attribute maps."""
    out: Dict[str, Any] = {}
    for relation in instance.schema:
        tuples = [
            {attr: value_to_json(tup[attr]) for attr in tup.attributes}
            for tup in instance.relation(relation.name)
        ]
        if tuples:
            out[relation.name] = tuples
    return out


def instance_from_dict(program: WorkflowProgram, data: Dict[str, Any]) -> Instance:
    """Decode :func:`instance_to_dict` output against *program*'s schema.

    Raises :class:`SerializationError` when *data* is not an instance
    encoding (not an object of relation -> list of attribute maps).
    """
    from .tuples import Tuple

    schema = program.schema.schema
    contents = {}
    try:
        for name, rows in data.items():
            relation = schema.relation(name)
            contents[name] = [
                Tuple(
                    relation.attributes,
                    tuple(value_from_json(row.get(a, {"$null": True})) for a in relation.attributes),
                )
                for row in rows
            ]
    except (AttributeError, TypeError) as exc:
        raise SerializationError(f"malformed instance encoding: {exc!r}") from None
    return Instance.from_tuples(schema, contents)


def run_to_dict(run: Run, include_instances: bool = False) -> Dict[str, Any]:
    """Encode a run as a replayable JSON-compatible structure.

    Only the event sequence is required to reconstruct the run (events
    determine runs); instances are included for audit logs on request.
    """
    out: Dict[str, Any] = {
        "initial": instance_to_dict(run.initial),
        "events": [event_to_dict(event) for event in run.events],
    }
    if include_instances:
        out["instances"] = [instance_to_dict(inst) for inst in run.instances]
    return out


def run_from_dict(program: WorkflowProgram, data: Dict[str, Any]) -> Run:
    """Replay a :func:`run_to_dict` structure against *program*.

    The events are re-executed, so the result is validated end to end;
    raises :class:`~repro.workflow.errors.RunError` when the log does
    not form a run of the program.
    """
    initial = instance_from_dict(program, data.get("initial", {}))
    events = [event_from_dict(program, entry) for entry in data.get("events", [])]
    return execute(program, events, initial=initial, check_freshness=False)


def run_to_json(run: Run, include_instances: bool = False, indent: Optional[int] = None) -> str:
    """The JSON string form of :func:`run_to_dict`."""
    return json.dumps(run_to_dict(run, include_instances), indent=indent, sort_keys=True)


def run_from_json(program: WorkflowProgram, text: str) -> Run:
    """Parse and replay a :func:`run_to_json` string."""
    return run_from_dict(program, json.loads(text))
