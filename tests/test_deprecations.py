"""Retired names stay retired.

The delta-facing entry points moved into :mod:`repro.dataflow`
(``ViewDelta`` -> ``Delta``, and the ``delta_visible_to`` /
``refresh_view_instance`` function forms -> the ``Delta.visible_to`` /
``Delta.refresh_view`` methods).  The old engine and ``repro.workflow``
spellings kept working for one release through PEP 562 module
``__getattr__`` shims; that release is over, so the shims and
``repro.deprecation`` are gone, and so are the function forms.  This suite pins that — and that
the *previous* generation of shims (the renamed search-limit kwargs
and pre-backend toggles) is gone too, so nothing resurrects them
silently.  The multiprocessing search engine went whole: its package,
the searches' ``workers=`` keyword and the CLI's ``--workers`` flag.
"""

from __future__ import annotations

import importlib
import warnings

import pytest


class TestMovedDeltaNames:
    """The engine's delta surface lives only in repro.dataflow."""

    def test_engine_viewdelta_is_gone(self):
        import repro.workflow.engine as engine

        with pytest.raises(AttributeError):
            engine.ViewDelta

    def test_workflow_viewdelta_is_gone(self):
        import repro.workflow as workflow

        with pytest.raises(AttributeError):
            workflow.ViewDelta
        with pytest.raises(ImportError):
            from repro.workflow import ViewDelta  # noqa: F401

    def test_engine_delta_visible_to_is_gone(self):
        import repro.workflow.engine as engine

        with pytest.raises(AttributeError):
            engine.delta_visible_to

    def test_engine_refresh_view_instance_is_gone(self):
        import repro.workflow.engine as engine

        with pytest.raises(AttributeError):
            engine.refresh_view_instance

    def test_new_locations_are_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.dataflow import Delta  # noqa: F401

    def test_function_forms_are_gone(self):
        import repro.api as api
        import repro.dataflow as dataflow

        for name in ("delta_visible_to", "refresh_view_instance"):
            assert not hasattr(dataflow, name)
            assert name not in api.__all__

    def test_unknown_engine_attribute_still_raises(self):
        import repro.workflow.engine as engine

        with pytest.raises(AttributeError):
            engine.no_such_name


class TestRetiredShims:
    """The PR 3/4 shims completed their cycle and are gone for good."""

    def test_renamed_kwarg_is_gone(self):
        # renamed_kwarg lived in repro.deprecation, which is gone whole.
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.deprecation")

    def test_set_planned_is_gone(self):
        from repro.workflow import planner

        assert not hasattr(planner, "set_planned")
        assert "set_planned" not in planner.__all__

    def test_naive_queries_env_is_ignored(self, monkeypatch):
        from repro.workflow import planner

        monkeypatch.delenv("REPRO_QUERY_BACKEND", raising=False)
        monkeypatch.setenv("REPRO_NAIVE_QUERIES", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert planner._backend_from_env() == "compiled"

    def test_minimum_scenario_rejects_max_size(self, approval_run):
        from repro.core import minimum_scenario

        with pytest.raises(TypeError):
            minimum_scenario(approval_run, "applicant", max_size=3)

    def test_enumerate_rejects_max_length(self, approval):
        from repro.workflow.enumerate import enumerate_event_sequences

        with pytest.raises(TypeError):
            list(enumerate_event_sequences(approval, max_length=2))

    def test_enumerate_depth_is_still_required(self, approval):
        from repro.workflow.enumerate import enumerate_event_sequences

        with pytest.raises(TypeError, match="max_depth"):
            list(enumerate_event_sequences(approval))

    def test_lint_rejects_explore_depth(self, approval):
        from repro.workflow.lint import lint_program

        with pytest.raises(TypeError):
            lint_program(approval, explore_depth=3)

    def test_anytime_minimum_scenario_rejects_max_size(self, approval_run):
        from repro.api import Budget, anytime_minimum_scenario

        with pytest.raises(TypeError):
            anytime_minimum_scenario(approval_run, "applicant", Budget(), max_size=3)


class TestParallelEngineIsGone:
    """The searches are sequential; nothing selects a worker count."""

    def test_package_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.parallel")

    def test_searches_reject_workers(self, approval_run):
        from repro.core import minimum_scenario
        from repro.transparency import check_h_bounded, smallest_bound
        from repro.workflow.statespace import StateSpaceExplorer, fact_reachable

        program = approval_run.program
        searches = [
            lambda: StateSpaceExplorer(program, workers=2),
            lambda: fact_reachable(program, "approval", 1, workers=2),
            lambda: check_h_bounded(program, "applicant", 1, workers=2),
            lambda: smallest_bound(program, "applicant", 1, workers=2),
            lambda: minimum_scenario(approval_run, "applicant", workers=2),
        ]
        for search in searches:
            with pytest.raises(TypeError):
                search()

    def test_cli_rejects_workers(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--workers", "2", "run", "--help"])
        assert exit_info.value.code == 2
