"""The compiled query backend: codegen shape, caching, and accounting.

The multiset equivalence proof lives in
``test_planner_equivalence.py``; these tests pin the parts equivalence
cannot see — what the generated source looks like (probes inlined,
filters pushed down, locals only), that the backend switch validates
its input, and that the observability counters tell the truth about
closure compilation and cache hits.
"""

from __future__ import annotations

import pytest

from repro.workflow import compiler, planner
from repro.workflow.domain import NULL
from repro.workflow.evalstats import EVAL_STATS
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


def two_relation_world():
    r = View(Relation("R", ("K", "A")), "p", ("K", "A"))
    s = View(Relation("S", ("K", "B")), "p", ("K", "B"))
    schema = Schema([r.view_relation, s.view_relation])
    inst = Instance.from_tuples(
        schema,
        {
            "R@p": [Tuple(("K", "A"), (1, 10)), Tuple(("K", "A"), (2, 20))],
            "S@p": [Tuple(("K", "B"), (10, 7)), Tuple(("K", "B"), (20, 7))],
        },
    )
    return r, s, inst


def compiled_source(query, inst):
    list(compiler.evaluate(query, inst))
    plan = planner.plan_for(query)
    assert plan.compiled, "evaluation must have compiled a closure"
    [closure] = plan.compiled.values()
    return closure.__repro_source__


class TestBackendSwitch:
    def test_default_backend_is_compiled(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUERY_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_NAIVE_QUERIES", raising=False)
        assert planner._backend_from_env() == "compiled"
        monkeypatch.setenv("REPRO_QUERY_BACKEND", "  ")
        assert planner._backend_from_env() == "compiled"

    def test_env_selects_each_backend(self, monkeypatch):
        assert planner.BACKENDS == ("naive", "compiled")
        for backend in planner.BACKENDS:
            monkeypatch.setenv("REPRO_QUERY_BACKEND", backend)
            assert planner._backend_from_env() == backend

    def test_unknown_env_backend_is_rejected(self, monkeypatch):
        # A misspelt or unknown backend must not silently run compiled.
        for name in ("vectorized", "compield"):
            monkeypatch.setenv("REPRO_QUERY_BACKEND", name)
            with pytest.raises(ValueError, match="naive, compiled"):
                planner._backend_from_env()

    def test_set_backend_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="vectorized"):
            planner.set_backend("vectorized")

    def test_set_backend_returns_the_previous_backend(self):
        previous = planner.query_backend()
        try:
            assert planner.set_backend("naive") == previous
            assert planner.set_backend("compiled") == "naive"
            assert planner.query_backend() == "compiled"
        finally:
            planner.set_backend(previous)


class TestGeneratedSource:
    def test_join_probe_is_inlined(self):
        r, s, inst = two_relation_world()
        x, y = Var("x"), Var("y")
        # R(k, x) ⋈ S(x, y): the second literal is key-bound after the
        # first binds x, so the source must probe rows by key instead
        # of scanning.
        query = Query([RelLiteral(r, (Var("k"), x)), RelLiteral(s, (x, y))])
        source = compiled_source(query, inst)
        assert "def _q(inst):" in source
        assert "inst.rows(" in source
        assert ".get(" in source, "the key-bound literal must probe, not scan"
        assert "cand" in source and "append(" in source

    def test_negative_literal_is_inlined_membership(self):
        r, s, inst = two_relation_world()
        x = Var("x")
        query = Query(
            [
                RelLiteral(r, (x, Var("a"))),
                KeyLiteral(s, x, positive=False),
            ]
        )
        source = compiled_source(query, inst)
        assert "not in" in source

    def test_comparison_compiles_to_plain_operator(self):
        r, _, inst = two_relation_world()
        x, a = Var("x"), Var("a")
        query = Query(
            [RelLiteral(r, (x, a)), Comparison(a, Const(10), False)]
        )
        source = compiled_source(query, inst)
        assert "!=" in source
        [valuation] = list(compiler.evaluate(query, inst))
        assert valuation[a] == 20

    def test_null_constant_compiles_to_the_singleton(self):
        r, _, _ = two_relation_world()
        schema = Schema([r.view_relation])
        inst = Instance.from_tuples(
            schema,
            {"R@p": [Tuple(("K", "A"), (1, NULL)), Tuple(("K", "A"), (2, 5))]},
        )
        x = Var("x")
        query = Query([RelLiteral(r, (x, Const(NULL)))])
        source = compiled_source(query, inst)
        assert "NULL" in source
        [valuation] = list(compiler.evaluate(query, inst))
        assert valuation[x] == 1

    def test_generated_code_sees_no_builtins(self):
        r, _, inst = two_relation_world()
        query = Query([RelLiteral(r, (Var("x"), Var("a")))])
        list(compiler.evaluate(query, inst))
        plan = planner.plan_for(query)
        [closure] = plan.compiled.values()
        assert closure.__globals__["__builtins__"] == {}


class TestAccounting:
    def test_candidate_counts_match_a_hand_count(self):
        r, s, inst = two_relation_world()
        x, y = Var("x"), Var("y")
        # A variable name no other test uses: a fresh plan, zero counters.
        query = Query(
            (RelLiteral(r, (Var("hand_k"), x)), RelLiteral(s, (x, y)))
        )
        valuations = list(compiler.evaluate(query, inst))

        # R has 2 tuples and S 2; both cost 2 unbound, so R (declared
        # first) is scanned: 2 candidates.  Each binds x to an S key
        # (10, 20), so S is one key probe per R tuple: 2 more, both hit.
        plan = planner.plan_for(query)
        assert plan.candidates == 4
        assert plan.emitted == 2
        assert sorted((v[x], v[y]) for v in valuations) == [(10, 7), (20, 7)]

    def test_closure_compilation_is_counted_once(self):
        r, _, inst = two_relation_world()
        # Plans are cached by query value: a variable name no other
        # test uses guarantees this evaluation really compiles.
        query = Query([RelLiteral(r, (Var("only_here"), Var("a")))])
        before = EVAL_STATS.snapshot()
        list(compiler.evaluate(query, inst))
        list(compiler.evaluate(query, inst))
        after = EVAL_STATS.snapshot()
        assert after["closures_compiled"] == before["closures_compiled"] + 1
        assert after["compiled_evals"] == before["compiled_evals"] + 2
        assert after["compile_ns"] > before["compile_ns"]
        plan = planner.plan_for(query)
        assert plan.compile_ns > 0

    def test_profile_rows_report_compile_time_and_closures(self):
        planner.reset_profile()
        r, _, inst = two_relation_world()
        query = Query([RelLiteral(r, (Var("profiled_here"), Var("a")))])
        planner.label_query(query, "probe")
        list(compiler.evaluate(query, inst))
        rows = [row for row in planner.profile_rows() if row[0] == "probe"]
        assert rows, "the labelled query must appear in the profile"
        [row] = rows
        label, evals, hits, candidates, emitted, total, per, compile_ms, closures = row
        assert evals == 1
        assert closures == 1
        assert compile_ms > 0
        rendered = planner.render_profile()
        assert f"backend={planner.query_backend()}" in rendered
