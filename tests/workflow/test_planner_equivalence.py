"""Property tests: planned (compiled) ≡ naive query evaluation.

Random schemas, instances and FCQ¬ queries — including ``⊥``
constants, positive and negative ``Key_R`` literals, =/≠ comparisons
and repeated variables — must produce the *same multiset* of
valuations under both backends: the naive declared-order backtracking
join, and the planner's plan (indexed fetches, reordered joins,
pushed-down filters) executed by the compiler as a per-plan
specialized Python closure.  A second pass mutates the instance
through the persistent update methods and re-checks, which exercises
both the copy-on-write index maintenance on derived instances and the
per-join-order closure cache (cardinalities shift, so the greedy
schedule — and hence the compiled closure — can change between
checks).
"""

from __future__ import annotations

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.workflow import compiler, planner
from repro.workflow.domain import NULL
from repro.workflow.errors import ChaseFailure, InvalidInstanceError
from repro.workflow.instance import Instance
from repro.workflow.queries import (
    Comparison,
    Const,
    KeyLiteral,
    Query,
    RelLiteral,
    Var,
)
from repro.workflow.schema import Relation, Schema
from repro.workflow.tuples import Tuple
from repro.workflow.views import View

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

VARS = (Var("x"), Var("y"), Var("z"), Var("w"))


def canonical(valuation):
    """A hashable, order-insensitive rendering of one valuation."""
    return tuple(sorted((var.name, repr(value)) for var, value in valuation.items()))


def naive_multiset(query, inst):
    return Counter(canonical(v) for v in query.valuations_naive(inst))


def compiled_multiset(query, inst):
    return Counter(canonical(v) for v in compiler.evaluate(query, inst))


@st.composite
def worlds(draw):
    """A (view instance, query, mutations) triple over a random schema."""
    n_rel = draw(st.integers(1, 3))
    views = []
    for i in range(n_rel):
        arity = draw(st.integers(2, 4))
        attrs = tuple(["K"] + [f"A{j}" for j in range(arity - 1)])
        views.append(View(Relation(f"R{i}", attrs), "p", attrs))
    view_schema = Schema([v.view_relation for v in views])

    def draw_tuple(view, key):
        values = [key] + [
            draw(st.one_of(st.integers(0, 3), st.just(NULL)))
            for _ in range(len(view.attributes) - 1)
        ]
        return Tuple(view.attributes, tuple(values))

    data = {}
    for view in views:
        rows = {}
        for _ in range(draw(st.integers(0, 6))):
            key = draw(st.integers(0, 5))
            rows[key] = draw_tuple(view, key)
        data[view.name] = rows
    inst = Instance(view_schema, data)

    def draw_term(pool):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            return Const(draw(st.integers(0, 5)))
        if kind == 1:
            return Const(NULL)
        return draw(st.sampled_from(pool))

    positives = []
    for _ in range(draw(st.integers(1, 3))):
        view = draw(st.sampled_from(views))
        positives.append(
            RelLiteral(view, tuple(draw_term(VARS) for _ in view.attributes))
        )
    if draw(st.booleans()):
        positives.append(KeyLiteral(draw(st.sampled_from(views)), draw_term(VARS)))
    safe = sorted(
        {v for lit in positives for v in lit.variables()}, key=lambda v: v.name
    )
    safe_pool = tuple(safe) if safe else (Const(0),)
    filters = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            view = draw(st.sampled_from(views))
            filters.append(
                RelLiteral(
                    view,
                    tuple(draw_term(safe_pool) for _ in view.attributes),
                    positive=False,
                )
            )
        elif kind == 1:
            filters.append(
                KeyLiteral(
                    draw(st.sampled_from(views)), draw_term(safe_pool), positive=False
                )
            )
        else:
            filters.append(
                Comparison(
                    draw_term(safe_pool), draw_term(safe_pool), draw(st.booleans())
                )
            )
    query = Query(tuple(positives) + tuple(filters))

    mutations = []
    for _ in range(draw(st.integers(0, 4))):
        view = draw(st.sampled_from(views))
        key = draw(st.integers(0, 5))
        if draw(st.booleans()):
            mutations.append(("insert", view, draw_tuple(view, key)))
        else:
            mutations.append(("delete", view, key))
    return inst, query, mutations


class TestPlannedEqualsNaive:
    """The planner's plans, as the compiler executes them, ≡ naive."""

    @SETTINGS
    @given(worlds())
    def test_same_valuation_multiset(self, world):
        inst, query, _ = world
        assert compiled_multiset(query, inst) == naive_multiset(query, inst)

    @SETTINGS
    @given(worlds())
    def test_same_after_persistent_updates(self, world):
        """Derived instances (carried/incrementally maintained indexes)
        answer exactly like freshly built ones."""
        inst, query, mutations = world
        # Materialize signature indexes on the base instance first so the
        # derived instances exercise the incremental with_changes path.
        compiled_multiset(query, inst)
        for action, view, payload in mutations:
            try:
                if action == "insert":
                    inst = inst.insert(view.name, payload)
                else:
                    inst = inst.delete(view.name, payload)
            except (ChaseFailure, InvalidInstanceError):
                continue
            assert compiled_multiset(query, inst) == naive_multiset(query, inst)

    @SETTINGS
    @given(worlds())
    def test_satisfied_by_agrees(self, world):
        """The O(1)-membership satisfied_by accepts exactly the
        valuations evaluation produces (on its own instance)."""
        inst, query, _ = world
        for valuation in query.valuations_naive(inst):
            assert query.satisfied_by(inst, valuation)

    def test_empty_query_emits_empty_valuation(self):
        view = View(Relation("R", ("K", "A")), "p", ("K", "A"))
        inst = Instance.empty(Schema([view.view_relation]))
        assert list(compiler.evaluate(Query(()), inst)) == [{}]
        assert list(Query(()).valuations_naive(inst)) == [{}]

    def test_null_constant_matches_only_null(self):
        view = View(Relation("R", ("K", "A")), "p", ("K", "A"))
        inst = Instance.from_tuples(
            Schema([view.view_relation]),
            {"R@p": [Tuple(("K", "A"), (1, NULL)), Tuple(("K", "A"), (2, 5))]},
        )
        x = Var("x")
        query = Query([RelLiteral(view, (x, Const(NULL)))])
        assert compiled_multiset(query, inst) == naive_multiset(query, inst)
        [only] = list(compiler.evaluate(query, inst))
        assert only[x] == 1

    def test_plan_cache_is_per_query_object(self):
        view = View(Relation("R", ("K", "A")), "p", ("K", "A"))
        query = Query([RelLiteral(view, (Var("x"), Var("y")))])
        assert planner.plan_for(query) is planner.plan_for(query)

    def test_set_backend_switches_the_default_path(self):
        view = View(Relation("R", ("K", "A")), "p", ("K", "A"))
        inst = Instance.from_tuples(
            Schema([view.view_relation]), {"R@p": [Tuple(("K", "A"), (1, 2))]}
        )
        query = Query([RelLiteral(view, (Var("x"), Var("y")))])
        answers = {}
        previous = planner.query_backend()
        try:
            for backend in planner.BACKENDS:
                planner.set_backend(backend)
                answers[backend] = sorted(
                    canonical(v) for v in query.valuations(inst)
                )
        finally:
            planner.set_backend(previous)
        assert set(answers) == {"naive", "compiled"}
        assert answers["naive"] == answers["compiled"]

    def test_compiled_closure_is_cached_per_join_order(self):
        view = View(Relation("R", ("K", "A")), "p", ("K", "A"))
        inst = Instance.from_tuples(
            Schema([view.view_relation]), {"R@p": [Tuple(("K", "A"), (1, 2))]}
        )
        query = Query([RelLiteral(view, (Var("x"), Var("y")))])
        compiled_multiset(query, inst)
        plan = planner.plan_for(query)
        assert len(plan.compiled) == 1
        [closure] = plan.compiled.values()
        compiled_multiset(query, inst)
        assert plan.compiled[next(iter(plan.compiled))] is closure
        assert "def _q(inst):" in closure.__repro_source__
