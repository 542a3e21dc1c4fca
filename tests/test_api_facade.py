"""The stable facade: ``repro.api`` is snapshot-tested against review.

``tests/api_surface.txt`` is the reviewed public surface, one name per
line, sorted.  Changing the facade means regenerating the snapshot —
``python -c "import repro.api; print('\\n'.join(sorted(repro.api.__all__)))"``
— so additions and removals always show up as a diff.  CI runs this
module in its own job and fails on drift.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.api as api

SNAPSHOT = Path(__file__).parent / "api_surface.txt"


def test_surface_matches_snapshot():
    recorded = SNAPSHOT.read_text().split()
    assert sorted(api.__all__) == recorded, (
        "repro.api.__all__ diverged from tests/api_surface.txt; "
        "if the change is deliberate, regenerate the snapshot"
    )


def test_all_names_resolve():
    for name in api.__all__:
        assert getattr(api, name, None) is not None, name


def test_no_duplicates():
    assert len(api.__all__) == len(set(api.__all__))


def test_facade_reexports_not_redefines():
    # Every name is defined elsewhere; the facade owns nothing.
    for name in api.__all__:
        obj = getattr(api, name)
        module = getattr(obj, "__module__", None)
        if module is not None and not name[0].isupper():
            assert module != "repro.api", name


@pytest.mark.parametrize(
    "name",
    [
        "parse_program",
        "RunGenerator",
        "explain_run",
        "minimum_scenario",
        "synthesize_view_program",
        "audit_program",
        "WorkflowService",
        "METRICS",
        "ProvenanceLog",
        "capture_spans",
        "run_provenance",
        "ERROR_CODES",
        "PROTOCOL_VERSION",
    ],
)
def test_documented_entry_points_present(name):
    assert name in api.__all__


def test_quickstart_from_the_docstring_runs(approval):
    # The four-line example in docs/API.md and the module docstring.
    from repro.api import RunGenerator, explain_run

    run = RunGenerator(approval, seed=0).random_run(6)
    text = explain_run(run, approval.schema.peers[0]).to_text()
    assert "Explanation" in text


def test_repro_package_is_not_a_second_facade():
    # `repro` exports its version and subpackages; the API is repro.api.
    import repro

    assert not hasattr(repro, "__all__")
    assert repro.__version__
    with pytest.raises(ImportError):
        from repro import parse_program  # noqa: F401
