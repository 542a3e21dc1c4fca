"""Closure-compiled execution of planned FCQ¬ queries.

The planner (:mod:`repro.workflow.planner`) decides how a body is
joined — the literal order and where each filter runs.  Executing that
decision literal by literal would pay generic ``_unify`` calls,
per-step valuation-dict copies and a recursive generator frame per
join depth for every candidate tuple.  This module instead *compiles*
each plan into a specialized Python function:

* the join loops are unrolled — one nested ``for``/``if`` block per
  positive literal, in the order the planner's selectivity heuristic
  chose for the instance at hand;
* key probes and signature-index probes are inlined as plain ``dict``
  operations against the raw structures exposed by
  :meth:`~repro.workflow.instance.Instance.rows` and
  :meth:`~repro.workflow.instance.Instance.signature_index`, fetched
  once in the function prologue;
* negative literals and comparisons are emitted at the earliest join
  depth that binds their variables (the planner's push-down schedule),
  as inline conditions;
* valuations live in locals — one ``x{i}`` per query variable — and a
  result dict is built only for each *emitted* valuation.

Null semantics come for free: ``⊥`` is the identity-equality singleton
:data:`~repro.workflow.domain.NULL`, so the plain ``==``/``!=``/``in``
probes the generated code uses agree with ``_unify`` and
:meth:`Comparison.holds` on every value of the domain.

Because the planner picks the join order per instance (selectivity
depends on relation cardinalities), one plan may execute under several
orders over its lifetime; each distinct order is compiled once and
cached on the plan (``plan.compiled``), which itself lives in the
planner's ``WeakKeyDictionary`` — so closures die with their query.

The property suite in ``tests/workflow/test_planner_equivalence.py``
asserts compiled ≡ naive valuation multisets on random schemas,
instances and queries.
"""

from __future__ import annotations

from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, Iterator, List, Tuple as PyTuple

from .domain import NULL
from .evalstats import EVAL_STATS
from .instance import Instance
from .queries import Comparison, Const, KeyLiteral, Query, RelLiteral, Var

__all__ = ["compile_order", "evaluate", "run_compiled"]

#: A compiled closure: ``fn(inst) -> (valuation dicts, candidate count)``.
CompiledQuery = Callable[[Instance], PyTuple[List[Dict[Var, object]], int]]


class _CodeGen:
    """Accumulates the source and environment of one specialized function."""

    def __init__(self) -> None:
        #: exec() globals: NULL plus captured constants / Var objects /
        #: relation names / attribute tuples.  No builtins: the
        #: generated code only uses literals and bound methods.
        self.env: Dict[str, object] = {"__builtins__": {}, "NULL": NULL}
        self.prologue: List[str] = []
        self.body: List[str] = []
        self.indent = 0
        self._serial = 0
        #: Var -> the local name holding its value once bound.
        self.locals: Dict[Var, str] = {}
        #: relation name -> local name of its rows dict.
        self._rows: Dict[str, str] = {}
        #: (relation name, positions) -> local name of its sig index.
        self._sigs: Dict[PyTuple[str, PyTuple[int, ...]], str] = {}

    # -- naming -------------------------------------------------------

    def fresh(self, prefix: str) -> str:
        self._serial += 1
        return f"{prefix}{self._serial}"

    def capture(self, prefix: str, value: object) -> str:
        """Expose *value* to the generated code under a fresh global name."""
        name = self.fresh(prefix)
        self.env[name] = value
        return name

    def rows(self, relation: str) -> str:
        """Local name of *relation*'s rows dict (fetched in the prologue)."""
        local = self._rows.get(relation)
        if local is None:
            local = self.fresh("rows")
            self._rows[relation] = local
            name = self.capture("N", relation)
            self.prologue.append(f"{local} = inst.rows({name})")
        return local

    def sig(self, relation: str, positions: PyTuple[int, ...]) -> str:
        """Local name of the signature index (fetched in the prologue)."""
        key = (relation, positions)
        local = self._sigs.get(key)
        if local is None:
            local = self.fresh("sig")
            self._sigs[key] = local
            name = self.capture("N", relation)
            self.prologue.append(
                f"{local} = inst.signature_index({name}, {positions!r})"
            )
        return local

    # -- emission -----------------------------------------------------

    def stmt(self, text: str) -> None:
        self.body.append("    " * (self.indent + 1) + text)

    def block(self, header: str) -> None:
        """Open an ``if``/``for`` block; everything after nests inside."""
        self.stmt(header)
        self.indent += 1

    def term(self, term: object) -> str:
        """The expression for a (ground-by-now) term: constant or local."""
        if isinstance(term, Const):
            if term.value is NULL:
                return "NULL"
            return self.capture("K", term.value)
        return self.locals[term]

    def source(self, label: str) -> str:
        lines = ["def _q(inst):"]
        lines.append("    out = []")
        lines.append("    append = out.append")
        lines.append("    cand = 0")
        lines.extend("    " + line for line in self.prologue)
        lines.extend(self.body)
        lines.append("    return out, cand")
        return "\n".join(lines) + "\n"


def _emit_filter(gen: _CodeGen, flt: object) -> None:
    """One pushed-down filter as an inline guard at the current depth.

    Failure falls through (skips the rest of the enclosing block), which
    prunes the partial valuation.
    """
    if isinstance(flt, Comparison):
        # NULL is an identity-equality singleton, so == / != agree with
        # the null-aware Comparison.holds on every domain value.
        op = "==" if flt.positive else "!="
        gen.block(f"if {gen.term(flt.left)} {op} {gen.term(flt.right)}:")
        return
    if isinstance(flt, KeyLiteral):
        rows = gen.rows(flt.view.name)
        gen.block(f"if {gen.term(flt.term)} not in {rows}:")
        return
    assert isinstance(flt, RelLiteral)
    rows = gen.rows(flt.view.name)
    probe = gen.fresh("f")
    values = ", ".join(gen.term(t) for t in flt.terms)
    attrs = gen.capture("A", flt.view.attributes)
    # contains_tuple: rows.get(values[0]) == Tuple(attrs, values); keys
    # are unique so membership is one probe at the target's key (a null
    # key is never stored and answers absent, like the naive scan).
    gen.stmt(f"{probe} = {rows}.get({gen.term(flt.terms[0])})")
    gen.block(
        f"if {probe} is None or {probe}.values != ({values},) "
        f"or {probe}.attributes != {attrs}:"
    )


def _emit_positions(gen: _CodeGen, step, tup: str, skip: PyTuple[int, ...]) -> None:
    """Checks and binds for a :class:`_RelStep`'s term positions.

    *skip* holds the positions already guaranteed by the probe that
    produced *tup* (the key probe's key position, or every probed
    position of a signature lookup).  Conditions are batched into one
    ``if`` until a variable bind interrupts them.
    """
    values = gen.fresh("u")
    conds: List[str] = []
    emitted_values = False

    def need_values() -> str:
        nonlocal emitted_values
        if not emitted_values:
            gen.stmt(f"{values} = {tup}.values")
            emitted_values = True
        return values

    def flush() -> None:
        if conds:
            gen.block("if " + " and ".join(conds) + ":")
            del conds[:]

    seen_here: Dict[Var, str] = {}
    for pos, term in enumerate(step.terms):
        if pos in skip:
            # Probed position: the dict lookup already guaranteed it,
            # but a *variable* term still needs its local if this is its
            # first binding (a key probe binds nothing by itself).
            if isinstance(term, Var) and term not in gen.locals:
                local = gen.fresh("x")
                flush()
                gen.stmt(f"{local} = {need_values()}[{pos}]")
                gen.locals[term] = local
                seen_here[term] = local
            continue
        if isinstance(term, Const):
            if term.value is NULL:
                conds.append(f"{need_values()}[{pos}] is NULL")
            else:
                conds.append(f"{need_values()}[{pos}] == {gen.term(term)}")
            continue
        bound = gen.locals.get(term)
        if bound is not None:
            conds.append(f"{need_values()}[{pos}] == {bound}")
            continue
        local = gen.fresh("x")
        flush()
        gen.stmt(f"{local} = {need_values()}[{pos}]")
        gen.locals[term] = local
        seen_here[term] = local
    flush()


def _emit_rel_step(gen: _CodeGen, step) -> None:
    """One positive relational literal as an unrolled probe or loop."""
    rows = gen.rows(step.name)
    key_position = step.key_position
    key_term = step.terms[key_position]
    key_bound = isinstance(key_term, Const) or key_term in gen.locals

    if key_bound:
        tup = gen.fresh("t")
        gen.stmt(f"{tup} = {rows}.get({gen.term(key_term)})")
        gen.block(f"if {tup} is not None:")
        gen.stmt("cand += 1")
        _emit_positions(gen, step, tup, skip=(key_position,))
        return

    probed: List[PyTuple[int, str]] = []
    for pos, value in step.const_items:
        term = step.terms[pos]
        probed.append((pos, "NULL" if value is NULL else gen.term(term)))
    for pos, var in step.var_items:
        local = gen.locals.get(var)
        if local is not None:
            probed.append((pos, local))

    tup = gen.fresh("t")
    if probed:
        # Positions in a fixed order (constants first, then bound
        # variables), so every closure probing the same positions
        # shares one materialized signature index per instance.
        positions = tuple(pos for pos, _ in probed)
        values = ", ".join(expr for _, expr in probed)
        sig = gen.sig(step.name, positions)
        gen.block(f"for {tup} in {sig}.get(({values},), ()):")
    else:
        gen.block(f"for {tup} in {rows}.values():")
    gen.stmt("cand += 1")
    _emit_positions(gen, step, tup, skip=tuple(pos for pos, _ in probed))


def _emit_key_step(gen: _CodeGen, step) -> None:
    """One positive key literal: membership test or key loop."""
    rows = gen.rows(step.name)
    term = step.term
    if isinstance(term, Const) or term in gen.locals:
        gen.block(f"if {gen.term(term)} in {rows}:")
        return
    local = gen.fresh("x")
    gen.block(f"for {local} in {rows}:")
    gen.stmt("cand += 1")
    gen.locals[term] = local


def compile_order(plan, ordered, schedule) -> CompiledQuery:
    """Compile one (plan, join order) pair into a specialized closure.

    *ordered* and *schedule* are the planner's per-instance join order
    and filter push-down schedule (``QueryPlan._schedule``).  The
    closure takes an instance and returns ``(valuations, candidates)``
    where *valuations* is the list of satisfying valuation dicts and
    *candidates* counts the tuples (and keys) considered, which the
    plan's ``candidates`` profile counter accumulates.
    """
    started = perf_counter_ns()
    gen = _CodeGen()
    from .planner import _KeyStep  # deferred: planner imports this module

    # Which output variables each depth binds first.  Safety guarantees
    # every query variable occurs in some positive literal, and the
    # positive literals are exactly the plan steps, so the union over
    # depths covers the whole output valuation.
    bound: set = set()
    new_by_depth: List[List[Var]] = []
    for step in ordered:
        terms = (step.term,) if isinstance(step, _KeyStep) else step.terms
        fresh = sorted(
            {t for t in terms if isinstance(t, Var) and t not in bound},
            key=lambda v: v.name,
        )
        bound.update(fresh)
        new_by_depth.append(fresh)
    bind_depths = [d for d, fresh in enumerate(new_by_depth) if fresh]
    last_bind = bind_depths[-1] if bind_depths else None

    prefix = None
    for depth, step in enumerate(ordered):
        for flt in schedule[depth]:
            _emit_filter(gen, flt)
        if isinstance(step, _KeyStep):
            _emit_key_step(gen, step)
        else:
            _emit_rel_step(gen, step)
        fresh = new_by_depth[depth]
        if fresh and depth != last_bind:
            # Partial valuation shared by everything nested inside this
            # depth: built once per surviving candidate here, extended
            # by copy per emission.  ``{**prefix, ...}`` and ``.copy()``
            # reuse the stored hashes, so inner loops never re-hash the
            # outer keys — only the variables their own depth binds.
            nxt = gen.fresh("p")
            items = ", ".join(
                f"{gen.capture('V', var)}: {gen.locals[var]}" for var in fresh
            )
            if prefix is None:
                gen.stmt(f"{nxt} = {{{items}}}")
            else:
                gen.stmt(f"{nxt} = {{**{prefix}, {items}}}")
            prefix = nxt
    for flt in schedule[len(ordered)]:
        _emit_filter(gen, flt)
    tail = new_by_depth[last_bind] if last_bind is not None else []
    if prefix is None:
        items = ", ".join(
            f"{gen.capture('V', var)}: {gen.locals[var]}" for var in tail
        )
        gen.stmt(f"append({{{items}}})")
    else:
        val = gen.fresh("v")
        gen.stmt(f"{val} = {prefix}.copy()")
        for var in tail:
            gen.stmt(f"{val}[{gen.capture('V', var)}] = {gen.locals[var]}")
        gen.stmt(f"append({val})")

    label = plan.label or "query"
    source = gen.source(label)
    code = compile(source, f"<repro-compiled:{label}>", "exec")
    exec(code, gen.env)
    fn = gen.env["_q"]
    fn.__repro_source__ = source  # for tests and debugging
    elapsed = perf_counter_ns() - started
    plan.compile_ns += elapsed
    EVAL_STATS.closures_compiled += 1
    EVAL_STATS.compile_ns += elapsed
    return fn


def run_compiled(plan, inst: Instance) -> List[Dict[Var, object]]:
    """Evaluate *plan* on *inst* through its compiled closure.

    Asks the plan for its join order on *inst* (selectivity depends on
    the instance's cardinalities), then dispatches to the closure
    compiled for that order — generated on first use and cached on the
    plan.
    """
    start = perf_counter()
    plan.evals += 1
    EVAL_STATS.compiled_evals += 1
    try:
        ordered, schedule = plan._schedule(inst)
        index_of = {id(step): index for index, step in enumerate(plan.steps)}
        order = tuple(index_of[id(step)] for step in ordered)
        fn = plan.compiled.get(order)
        if fn is None:
            fn = compile_order(plan, ordered, schedule)
            plan.compiled[order] = fn
        out, candidates = fn(inst)
        plan.candidates += candidates
        EVAL_STATS.literals_scanned += candidates
        plan.emitted += len(out)
        EVAL_STATS.valuations_emitted += len(out)
        return out
    finally:
        plan.elapsed += perf_counter() - start


def evaluate(query: Query, inst: Instance) -> Iterator[Dict[Var, object]]:
    """Compiled evaluation of *query* on *inst* (the hottest path)."""
    from .planner import plan_for

    return iter(run_compiled(plan_for(query), inst))
