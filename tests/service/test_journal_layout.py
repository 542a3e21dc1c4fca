"""The shared journal path convention (`serve` and `recover` must agree)."""

from __future__ import annotations

import pytest

from repro.runtime.journal import (
    JOURNAL_SUFFIX,
    JournalError,
    journal_path,
    run_id_from_path,
)
from repro.storage import SegmentBackend


class TestJournalPathConvention:
    @pytest.mark.parametrize(
        "run_id",
        ["plain", "with space", "nested/run", "dots..", "uni-ν17", "a:b?c#d"],
    )
    def test_round_trip(self, tmp_path, run_id):
        path = journal_path(tmp_path, run_id)
        assert path.parent == tmp_path
        assert path.name.endswith(JOURNAL_SUFFIX)
        # Percent-encoding keeps every run id inside one directory entry.
        assert "/" not in path.name
        assert run_id_from_path(path) == run_id

    def test_distinct_ids_never_collide(self, tmp_path):
        ids = ["a/b", "a%2Fb", "a b", "a+b", "a", "b"]
        paths = {journal_path(tmp_path, run_id) for run_id in ids}
        assert len(paths) == len(ids)

    def test_empty_run_id_rejected(self, tmp_path):
        with pytest.raises(JournalError):
            journal_path(tmp_path, "")

    def test_foreign_files_rejected(self, tmp_path):
        with pytest.raises(JournalError):
            run_id_from_path(tmp_path / "notes.txt")

    def test_list_journals(self, tmp_path):
        # The segment backend lists its root by this convention.
        assert SegmentBackend(tmp_path / "missing").run_ids() == []
        for run_id in ("r1", "r2", "spaced id"):
            journal_path(tmp_path, run_id).write_text("")
        (tmp_path / "README").write_text("not a journal")
        # A compaction's orphan copy is not a run.
        (tmp_path / "r3.journal.tmp").write_text("")
        assert SegmentBackend(tmp_path).run_ids() == ["r1", "r2", "spaced id"]
