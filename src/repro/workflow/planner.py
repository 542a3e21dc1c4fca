"""Query plans for FCQ¬ bodies: join order, filter push-down, profiling.

The naive evaluator in :mod:`repro.workflow.queries` joins the positive
literals in declared order by scanning whole relations and checks every
negative literal with a linear membership test.  This module compiles
each :class:`~repro.workflow.queries.Query` once into a
:class:`QueryPlan` that decides *how* the body is joined; the compiler
(:mod:`repro.workflow.compiler`) turns each decision into a specialized
closure and executes it.  A plan carries three classic improvements:

* **join ordering** — at execution time the positive literals are
  greedily reordered most-selective-first, using the instance's
  relation cardinalities and the number of already-bound positions
  (constants count as bound from the start);
* **indexed candidate fetch** — a literal whose key position is bound
  fetches its (at most one) candidate by key in O(1); a literal with
  any bound positions probes the lazily-built bound-position signature
  index on the :class:`~repro.workflow.instance.Instance`; only a
  literal with no bound positions scans its relation;
* **filter push-down** — negative literals and comparisons run at the
  earliest join step that binds all their variables (an O(1) key or
  tuple membership probe), pruning partial valuations instead of
  filtering complete ones.

Plans are cached per query object (queries hash by identity and are
immutable after construction) in a :class:`weakref.WeakKeyDictionary`,
so compiling is paid once per rule body per process.  Evaluation is
result-identical to the naive evaluator — only the *order* in which
valuations are emitted may differ; the property suite in
``tests/workflow/test_planner_equivalence.py`` asserts multiset
equality on random schemas, instances and queries.

Backend selection is process-wide: ``REPRO_QUERY_BACKEND`` picks
``naive`` (the declared-order reference evaluator, the oracle) or
``compiled`` (the default — the plan executed as a closure);
:func:`set_backend` switches at runtime and every caller of
:meth:`Query.valuations` is oblivious.  Any other value is an error.
"""

from __future__ import annotations

import os
import weakref
from typing import Dict, FrozenSet, List, Optional, Tuple as PyTuple

from .evalstats import EVAL_STATS
from .instance import Instance
from .queries import Const, KeyLiteral, Literal, Query, RelLiteral, Var

__all__ = [
    "QueryPlan",
    "plan_for",
    "label_query",
    "query_backend",
    "set_backend",
    "profile_rows",
    "render_profile",
    "reset_profile",
]


# ----------------------------------------------------------------------
# Global switch: the naive oracle or the compiled fast path
# ----------------------------------------------------------------------

#: Valid values of ``REPRO_QUERY_BACKEND`` / :func:`set_backend`.
BACKENDS: PyTuple[str, ...] = ("naive", "compiled")


def _check_backend(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown query backend {name!r}; expected one of {', '.join(BACKENDS)}"
        )
    return name


def _backend_from_env() -> str:
    """``REPRO_QUERY_BACKEND``, validated; unset or empty means compiled."""
    explicit = os.environ.get("REPRO_QUERY_BACKEND", "").strip().lower()
    return _check_backend(explicit) if explicit else "compiled"


_BACKEND = _backend_from_env()


def query_backend() -> str:
    """The active evaluation backend: ``naive`` or ``compiled``."""
    return _BACKEND


def set_backend(name: str) -> str:
    """Switch the process-wide backend; returns the previous one.

    Accepts the values of :data:`BACKENDS`.  Tests and benchmarks use
    the returned previous backend to restore state in a ``finally``.
    """
    global _BACKEND
    previous = _BACKEND
    _BACKEND = _check_backend(name)
    return previous


# ----------------------------------------------------------------------
# Plan steps
# ----------------------------------------------------------------------


class _RelStep:
    """A positive relational literal, analysed once for planning."""

    __slots__ = ("literal", "name", "terms", "arity", "key_position", "const_items", "var_items", "variables")

    def __init__(self, literal: RelLiteral) -> None:
        view = literal.view
        self.literal = literal
        self.name = view.name
        self.terms = literal.terms
        self.arity = len(literal.terms)
        self.key_position = view.attributes.index(view.relation.key_attribute)
        self.const_items: PyTuple[PyTuple[int, object], ...] = tuple(
            (i, t.value) for i, t in enumerate(literal.terms) if isinstance(t, Const)
        )
        self.var_items: PyTuple[PyTuple[int, Var], ...] = tuple(
            (i, t) for i, t in enumerate(literal.terms) if isinstance(t, Var)
        )
        self.variables: FrozenSet[Var] = literal.variables()


class _KeyStep:
    """A positive key literal ``Key_R@p(y)``, analysed once for planning."""

    __slots__ = ("literal", "name", "term", "variables")

    def __init__(self, literal: KeyLiteral) -> None:
        self.literal = literal
        self.name = literal.view.name
        self.term = literal.term
        self.variables: FrozenSet[Var] = literal.variables()


# ----------------------------------------------------------------------
# Query plans
# ----------------------------------------------------------------------


class QueryPlan:
    """An FCQ¬ query planned for ordered, indexed, filter-pushing joins.

    Planning analyses each literal once (positions of constants and
    variables, the key position, the variable set).  The join *order* is
    chosen per evaluation because selectivity depends on the instance's
    relation cardinalities; ordering is O(n²) in the number of positive
    literals, which is tiny next to the joins it saves.  The compiler
    executes each chosen order as a closure cached in ``compiled``.

    Each plan keeps its own profile counters (``evals``, ``candidates``,
    ``emitted``, ``elapsed``) feeding the ``--profile-queries`` table.
    """

    __slots__ = ("__weakref__", "query", "steps", "filters", "label", "describe", "evals", "candidates", "emitted", "elapsed", "compiled", "compile_ns", "cache_hits")

    def __init__(self, query: Query) -> None:
        self.query = query
        steps: List[object] = []
        for literal in query.positive_literals():
            if isinstance(literal, RelLiteral):
                steps.append(_RelStep(literal))
            else:
                steps.append(_KeyStep(literal))
        self.steps: PyTuple[object, ...] = tuple(steps)
        self.filters: PyTuple[PyTuple[Literal, FrozenSet[Var]], ...] = tuple(
            (flt, flt.variables())
            for flt in (*query.negative_literals(), *query.comparisons())
        )
        self.label: Optional[str] = None
        self.describe = repr(query)
        self.evals = 0
        self.candidates = 0
        self.emitted = 0
        self.elapsed = 0.0
        #: join-order tuple -> specialized closure (see repro.workflow.compiler)
        self.compiled: Dict[PyTuple[int, ...], object] = {}
        self.compile_ns = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    # Ordering and filter scheduling (per instance)
    # ------------------------------------------------------------------

    def _cost(self, step: object, bound: FrozenSet[Var], inst: Instance) -> int:
        """Estimated candidates the step yields given *bound* variables."""
        card = inst.relation_size(step.name)
        if isinstance(step, _KeyStep):
            if isinstance(step.term, Const) or step.term in bound:
                return 0
            return card
        nbound = len(step.const_items) + sum(
            1 for _, var in step.var_items if var in bound
        )
        if nbound == 0:
            return card
        key_bound = any(
            pos == step.key_position for pos, _ in step.const_items
        ) or any(
            pos == step.key_position and var in bound for pos, var in step.var_items
        )
        if key_bound or nbound == step.arity:
            return 1
        # A bound position cuts the candidate set roughly geometrically;
        # the exact constant only matters for tie-breaking.
        return max(1, card >> (2 * nbound))

    def _schedule(
        self, inst: Instance
    ) -> PyTuple[List[object], List[List[Literal]]]:
        """Greedy most-selective-first order plus filter push-down.

        Returns the ordered steps and, for each join depth ``i``, the
        filters whose variables are all bound once ``i`` steps have run
        (index 0 holds ground filters, checked before any join work).
        """
        remaining = list(enumerate(self.steps))
        bound: set = set()
        ordered: List[object] = []
        while remaining:
            frozen = frozenset(bound)
            best_at, (_, best) = min(
                enumerate(remaining),
                key=lambda item: (self._cost(item[1][1], frozen, inst), item[1][0]),
            )
            del remaining[best_at]
            ordered.append(best)
            bound.update(best.variables)
        schedule: List[List[Literal]] = [[] for _ in range(len(ordered) + 1)]
        prefixes: List[FrozenSet[Var]] = [frozenset()]
        acc: set = set()
        for step in ordered:
            acc.update(step.variables)
            prefixes.append(frozenset(acc))
        for flt, variables in self.filters:
            for depth, prefix in enumerate(prefixes):
                if variables <= prefix:
                    schedule[depth].append(flt)
                    break
        return ordered, schedule


# ----------------------------------------------------------------------
# Plan cache and profile registry
# ----------------------------------------------------------------------

_PLAN_CACHE: "weakref.WeakKeyDictionary[Query, QueryPlan]" = weakref.WeakKeyDictionary()


def plan_for(query: Query) -> QueryPlan:
    """The compiled plan for *query*, compiled on first use.

    Queries are immutable and hash structurally (cached), so the cache
    key is the query object itself — structurally equal queries share a
    plan — and entries die with their key query (weak keys).
    """
    plan = _PLAN_CACHE.get(query)
    if plan is None:
        plan = QueryPlan(query)
        _PLAN_CACHE[query] = plan
        EVAL_STATS.plans_compiled += 1
    else:
        EVAL_STATS.plan_cache_hits += 1
        plan.cache_hits += 1
    return plan


def label_query(query: Query, label: str) -> None:
    """Attach a human-readable label (typically the rule name) to a plan.

    The label shows up in the ``--profile-queries`` table instead of the
    raw body text; the first label wins.
    """
    plan = plan_for(query)
    if plan.label is None:
        plan.label = label


def profile_rows() -> List[PyTuple[str, int, int, int, int, float, float, float, int]]:
    """Per-plan hot-path rows, hottest (by elapsed time) first.

    Each row is ``(label, evals, cache_hits, candidates, emitted,
    total_ms, per_eval_us, compile_ms, closures)``: *cache_hits* counts
    plan-cache hits for the rule (every eval past the first miss),
    *compile_ms* / *closures* account for the compiled backend's code
    generation.  Plans that never ran are omitted.
    """
    rows = []
    for plan in list(_PLAN_CACHE.values()):
        if plan.evals == 0:
            continue
        label = plan.label if plan.label is not None else plan.describe
        if len(label) > 48:
            label = label[:45] + "..."
        total_ms = plan.elapsed * 1e3
        per_eval_us = plan.elapsed / plan.evals * 1e6
        rows.append(
            (
                label,
                plan.evals,
                plan.cache_hits,
                plan.candidates,
                plan.emitted,
                total_ms,
                per_eval_us,
                plan.compile_ns / 1e6,
                len(plan.compiled),
            )
        )
    rows.sort(key=lambda row: row[5], reverse=True)
    return rows


def render_profile(limit: int = 20) -> str:
    """The ``--profile-queries`` table as text (empty string if idle)."""
    rows = profile_rows()
    if not rows:
        return ""
    headers = (
        "rule / body",
        "evals",
        "hits",
        "candidates",
        "emitted",
        "total ms",
        "us/eval",
        "compile ms",
        "closures",
    )
    formatted = [
        (
            label,
            str(evals),
            str(hits),
            str(cand),
            str(emitted),
            f"{ms:.2f}",
            f"{us:.1f}",
            f"{compile_ms:.2f}",
            str(closures),
        )
        for label, evals, hits, cand, emitted, ms, us, compile_ms, closures in rows[:limit]
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in formatted))
        for i in range(len(headers))
    ]
    lines = [f"query hot path (hottest first, backend={_BACKEND})"]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    stats = EVAL_STATS
    lines.append(
        f"backend={_BACKEND} plans={stats.plans_compiled} "
        f"cache_hits={stats.plan_cache_hits} "
        f"closures={stats.closures_compiled} "
        f"compile_ms={stats.compile_ns / 1e6:.2f} "
        f"index_builds={stats.index_builds} index_hits={stats.index_hits} "
        f"scanned={stats.literals_scanned} emitted={stats.valuations_emitted}"
    )
    # Incremental maintenance is not query evaluation: graph pushes get
    # their own line so the table above stays a pure evaluation profile.
    if stats.dataflow_pushes:
        lines.append(
            f"dataflow pushes={stats.dataflow_pushes} "
            f"push_ms={stats.dataflow_ns / 1e6:.2f}"
        )
    return "\n".join(lines)


def reset_profile() -> None:
    """Zero every plan's counters (benchmarks isolate phases with this).

    Compiled closures are kept — they stay valid; only the accounting
    resets.
    """
    for plan in list(_PLAN_CACHE.values()):
        plan.evals = 0
        plan.candidates = 0
        plan.emitted = 0
        plan.elapsed = 0.0
        plan.compile_ns = 0
        plan.cache_hits = 0
