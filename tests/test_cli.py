"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.workflow.serialization import program_to_text
from repro.workloads import hiring_no_cfo_program, hiring_program

HIRING_TEXT = program_to_text(hiring_program())


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "hiring.wf"
    path.write_text(HIRING_TEXT)
    return str(path)


@pytest.fixture
def no_cfo_file(tmp_path):
    path = tmp_path / "no_cfo.wf"
    path.write_text(program_to_text(hiring_no_cfo_program()))
    return str(path)


class TestCheck:
    def test_basic_audit(self, program_file, capsys):
        assert main(["check", program_file, "--peer", "sue"]) == 0
        out = capsys.readouterr().out
        assert "lossless schema:        True" in out
        assert "p-acyclic" in out

    def test_with_decisions(self, no_cfo_file, capsys):
        code = main(
            ["check", no_cfo_file, "--peer", "sue", "--decide-h", "2",
             "--pool-extra", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2-bounded (decided):   True" in out
        assert "transparent (decided):  False" in out

    def test_with_guidelines(self, program_file, capsys):
        main(
            ["check", program_file, "--peer", "sue",
             "--transparent", "Cleared,Hire"]
        )
        out = capsys.readouterr().out
        assert "guidelines (C1)-(C4)" in out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.wf", "--peer", "p"]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["check"],
        ["explain", "--steps", "3"],
        ["synthesize", "--bound", "1"],
        ["enforce", "--bound", "1", "--steps", "3"],
        ["run", "--steps", "3"],
        ["recover", "--journal", "{journal}"],
    ],
    ids=lambda command: command[0],
)
def test_undeclared_peer_is_refused(command, program_file, tmp_path, capsys):
    journal = tmp_path / "run.journal"
    assert main(["run", program_file, "--steps", "3", "--journal", str(journal)]) == 0
    capsys.readouterr()
    argv = [command[0], program_file, "--peer", "nobody"] + [
        arg.format(journal=journal) for arg in command[1:]
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "unknown peer 'nobody'" in captured.err
    assert "hr, ceo, cfo, sue" in captured.err
    assert captured.out == ""


class TestLint:
    def test_clean_program_exit_zero(self, program_file, capsys):
        assert main(["lint", program_file]) == 0
        out = capsys.readouterr().out
        assert "never-read(Hire)" in out  # info only

    def test_warnings_exit_nonzero(self, tmp_path, capsys):
        path = tmp_path / "dead.wf"
        path.write_text(
            "peers p\n"
            "relation R(K)\n"
            "relation Never(K)\n"
            "view R@p(K)\n"
            "view Never@p(K)\n"
            "[dead] +R@p(x) :- Never@p(n)\n"
        )
        assert main(["lint", str(path), "--depth", "2"]) == 1
        assert "possibly-dead-rule(dead)" in capsys.readouterr().out


class TestRun:
    def test_prints_run(self, program_file, capsys):
        assert main(["run", program_file, "--steps", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Run(5 events)" in out

    def test_peer_view_printed(self, program_file, capsys):
        main(["run", program_file, "--steps", "6", "--peer", "sue"])
        assert "RunView@sue" in capsys.readouterr().out

    def test_save_and_replay(self, program_file, tmp_path, capsys):
        log = tmp_path / "run.json"
        main(["run", program_file, "--steps", "6", "--save", str(log)])
        data = json.loads(log.read_text())
        assert len(data["events"]) == 6
        # The saved log can be fed back into explain.
        assert main(
            ["explain", program_file, "--peer", "sue", "--run", str(log)]
        ) == 0


class TestExplain:
    def test_explanation_text(self, program_file, capsys):
        assert main(
            ["explain", program_file, "--peer", "sue", "--steps", "8", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "minimal faithful scenario" in out

    def test_show_scenario(self, program_file, capsys):
        main(
            ["explain", program_file, "--peer", "sue", "--steps", "8",
             "--seed", "3", "--show-scenario"]
        )
        assert "replayed" in capsys.readouterr().out

    def test_rank_prints_shapley_table(self, program_file, capsys):
        assert main(
            ["explain", program_file, "--peer", "sue", "--steps", "8",
             "--seed", "3", "--rank"]
        ) == 0
        out = capsys.readouterr().out
        assert "Shapley ranking toward view@sue" in out
        assert "(exact)" in out  # 8 events -> exact attribution

    def test_rank_fact_target_with_sampling(self, program_file, capsys):
        assert main(
            ["explain", program_file, "--peer", "sue", "--steps", "8",
             "--seed", "3", "--rank", "--target", "Hire",
             "--rank-method", "sampled", "--rank-samples", "16",
             "--rank-seed", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "Shapley ranking toward Hire@sue" in out
        assert "16 samples, seed 4" in out

    def test_rank_unknown_target_rejected(self, program_file, capsys):
        code = main(
            ["explain", program_file, "--peer", "sue", "--steps", "4",
             "--rank", "--target", "Budget"]
        )
        assert code == 2
        assert "no view" in capsys.readouterr().err


class TestSynthesize:
    def test_view_program_printed(self, program_file, capsys):
        code = main(
            ["synthesize", program_file, "--peer", "sue", "--bound", "3",
             "--witnesses"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "+Cleared@world" in out
        assert "+Hire@world" in out
        assert "witnessed by" in out


class TestEnforce:
    def test_accepting_run(self, program_file, tmp_path, capsys):
        log = tmp_path / "run.json"
        main(["run", program_file, "--steps", "5", "--seed", "0", "--save", str(log)])
        capsys.readouterr()
        code = main(
            ["enforce", program_file, "--peer", "sue", "--bound", "3",
             "--run", str(log)]
        )
        out = capsys.readouterr().out
        assert "run accepted:" in out
        assert code in (0, 1)

    def test_blocking_run(self, no_cfo_file, tmp_path, capsys):
        """A stale-approval run is reported and exits non-zero."""
        from repro.workflow import Event, execute
        from repro.workflow.domain import FreshValue
        from repro.workflow.queries import Var
        from repro.workflow.serialization import run_to_json

        program = hiring_no_cfo_program()
        k, k2 = FreshValue(0), FreshValue(1)
        run = execute(
            program,
            [
                Event(program.rule("clear"), {Var("x"): k}),
                Event(program.rule("approve"), {Var("x"): k}),
                Event(program.rule("clear"), {Var("x"): k2}),
                Event(program.rule("hire"), {Var("x"): k}),
            ],
        )
        log = tmp_path / "sneaky.json"
        log.write_text(run_to_json(run))
        code = main(
            ["enforce", no_cfo_file, "--peer", "sue", "--bound", "2",
             "--run", str(log)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "BLOCKED" in out
        assert "run accepted: False" in out


class TestJournalAndRecover:
    def test_recover_defaults_to_the_checkpoint_fast_path(
        self, program_file, tmp_path, capsys
    ):
        """Regression pin: with snapshots every 2, recovering a 6-event
        journal resumes from the checkpoint at 6 and replays 0 events."""
        journal = tmp_path / "run.journal"
        assert main(
            ["run", program_file, "--steps", "6", "--seed", "1",
             "--journal", str(journal), "--snapshot-every", "2"]
        ) == 0
        capsys.readouterr()
        assert main(["recover", program_file, "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "journal status:      completed" in out
        assert "events decoded:      6" in out
        assert "events replayed:     0 (since checkpoint at 6)" in out

    def test_recover_fast_path_replays_only_the_tail(
        self, program_file, tmp_path, capsys
    ):
        journal = tmp_path / "run.journal"
        assert main(
            ["run", program_file, "--steps", "7", "--seed", "1",
             "--journal", str(journal), "--snapshot-every", "3"]
        ) == 0
        capsys.readouterr()
        assert main(["recover", program_file, "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "events replayed:     1 (since checkpoint at 6)" in out

    def test_recover_full_replays_and_verifies_everything(
        self, program_file, tmp_path, capsys
    ):
        journal = tmp_path / "run.journal"
        assert main(
            ["run", program_file, "--steps", "6", "--seed", "1",
             "--journal", str(journal), "--snapshot-every", "2"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["recover", program_file, "--journal", str(journal), "--full"]
        ) == 0
        out = capsys.readouterr().out
        assert "journal status:      completed" in out
        assert "events replayed:     6" in out
        assert "snapshots verified:  3" in out

    def test_recover_incomplete_journal_exits_one(
        self, program_file, tmp_path, capsys
    ):
        journal = tmp_path / "run.journal"
        main(["run", program_file, "--steps", "4", "--seed", "0",
              "--journal", str(journal)])
        capsys.readouterr()
        # Drop the end record: the writing process "died" before it.
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(l for l in lines if '"type": "end"' not in l))
        assert main(["recover", program_file, "--journal", str(journal)]) == 1
        assert "missing end record" in capsys.readouterr().out

    def test_recover_missing_journal_exits_two(self, program_file, capsys):
        code = main(
            ["recover", program_file, "--journal", "/nonexistent.journal"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_run_refuses_a_journal_that_holds_records(
        self, program_file, tmp_path, capsys
    ):
        """A second run must not append a second begin record."""
        journal = tmp_path / "run.journal"
        argv = ["run", program_file, "--steps", "4", "--seed", "0",
                "--journal", str(journal)]
        assert main(argv) == 0
        written = journal.read_bytes()
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "already holds records" in captured.err
        assert "run journal written" not in captured.out
        assert journal.read_bytes() == written
        assert main(["recover", program_file, "--journal", str(journal)]) == 0

    def test_journal_bytes_are_pinned(self, program_file, tmp_path, capsys):
        """The journal `run --journal` writes, byte for byte: the record
        format, key order, cadence snapshots and no compaction."""
        import hashlib

        journal = tmp_path / "run.journal"
        assert main(
            ["run", program_file, "--steps", "6", "--seed", "1",
             "--snapshot-every", "2", "--journal", str(journal)]
        ) == 0
        data = journal.read_bytes()
        assert data.count(b"\n") == 11
        assert hashlib.sha256(data).hexdigest() == (
            "293bc8d394ab4fe5b7908c25b71d68a550c15b245096af9452ca088980e21028"
        )


class TestGlobalBudget:
    def test_tripped_budget_exits_three(self, program_file, capsys):
        code = main(
            ["--max-steps", "3", "run", program_file, "--steps", "10",
             "--seed", "0"]
        )
        assert code == 3
        assert "budget exceeded:" in capsys.readouterr().err

    def test_generous_budget_unaffected(self, program_file, capsys):
        code = main(
            ["--wall-budget", "600", "--max-steps", "100000",
             "run", program_file, "--steps", "5", "--seed", "0"]
        )
        assert code == 0
        capsys.readouterr()


class TestServiceCommands:
    def test_serve_and_loadgen_roundtrip(self, tmp_path, capsys):
        """A served workload survives loadgen verification end to end."""
        import json as json_module
        import socket
        import threading
        import time

        from repro.cli import main as cli_main

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        server_rc = []
        thread = threading.Thread(
            target=lambda: server_rc.append(
                cli_main(
                    ["serve", "--workload", "churn", "--port", str(port),
                     "--journal-dir", str(tmp_path / "journals")]
                )
            ),
            daemon=True,
        )
        thread.start()
        deadline = time.time() + 5
        while time.time() < deadline:
            try:
                with socket.create_connection(("127.0.0.1", port), 0.2):
                    break
            except OSError:
                time.sleep(0.05)

        code = main(
            ["loadgen", "--workload", "churn", "--port", str(port),
             "--runs", "4", "--events", "8", "--seed", "2",
             "--shutdown", "--json"]
        )
        thread.join(timeout=10)
        out = capsys.readouterr().out
        # The serve thread's own output may trail the JSON report.
        report, _ = json_module.JSONDecoder().raw_decode(out[out.index("{"):])
        assert code == 0
        assert report["clean"] is True
        assert report["applied"] == 4 * 8
        assert server_rc == [0], "serve must exit 0 after a shutdown request"

    def test_recover_by_journal_dir_matches_serve_layout(
        self, program_file, tmp_path, capsys
    ):
        """`recover --journal-dir/--run-id` finds journals `serve` wrote."""
        import asyncio

        from repro.service import ShardedRunRegistry
        from repro.workflow import RunGenerator
        from repro.workflow.parser import parse_program

        program = parse_program(HIRING_TEXT)
        run = RunGenerator(program, seed=3).random_run(5)

        async def host():
            registry = ShardedRunRegistry(program, storage=f"file:{tmp_path}")
            hosted, _ = await registry.open("cli run/1")
            for event in run.events:
                hosted.apply(event)
            await registry.close("cli run/1")

        asyncio.run(host())
        code = main(
            ["recover", program_file, "--journal-dir", str(tmp_path),
             "--run-id", "cli run/1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "journal status:      completed" in out
        assert "events replayed:     5" in out

    def test_recover_journal_flag_conflicts(self, program_file, capsys):
        code = main(
            ["recover", program_file, "--journal", "x.journal",
             "--journal-dir", "/tmp", "--run-id", "r"]
        )
        assert code == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_recover_requires_a_source(self, program_file, capsys):
        assert main(["recover", program_file]) == 2
        assert "recover needs" in capsys.readouterr().err

    def test_unknown_workload_rejected(self, capsys):
        code = main(["loadgen", "--workload", "nope", "--port", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err
        # the diagnostic advertises the realistic families
        assert "ecommerce" in err and "procurement" in err

    def test_family_workload_with_bad_knob_rejected(self, capsys):
        code = main(
            ["loadgen", "--workload", "ecommerce:warp=9", "--port", "1"]
        )
        assert code == 2
        assert "unknown knob" in capsys.readouterr().err

    def test_family_and_fuzz_workloads_resolve(self, capsys):
        from repro.cli import _load_service_program
        import argparse

        for spec in ("ecommerce:items=1", "cicd", "fuzz:3"):
            namespace = argparse.Namespace(program=None, workload=spec)
            program = _load_service_program(namespace)
            assert program.rules

    def test_workload_and_program_are_exclusive(self, program_file, capsys):
        code = main(["serve", program_file, "--workload", "churn"])
        assert code == 2
        assert "not both" in capsys.readouterr().err


class TestStorageCommands:
    def _host_run(self, spec, run_id="r1", events=7, snapshot_every=3):
        """Host one run against *spec* storage and close it cleanly."""
        import asyncio

        from repro.service import ShardedRunRegistry
        from repro.storage import open_backend
        from repro.workflow import RunGenerator
        from repro.workflow.parser import parse_program

        program = parse_program(HIRING_TEXT)
        run = RunGenerator(program, seed=3).random_run(events)

        async def host():
            registry = ShardedRunRegistry(
                program, storage=open_backend(spec), snapshot_every=snapshot_every
            )
            await registry.open(run_id)
            hosted = await registry.get(run_id)
            for event in run.events:
                hosted.apply(event)
            await registry.close(run_id)

        asyncio.run(host())
        return program

    @pytest.mark.parametrize("scheme", ["segment", "file"])
    def test_recover_from_storage_backend(
        self, scheme, program_file, tmp_path, capsys
    ):
        """`recover --storage SPEC --run-id` reads what the registry wrote."""
        spec = f"{scheme}:{tmp_path / 'store'}"
        self._host_run(spec)
        code = main(
            ["recover", program_file, "--storage", spec, "--run-id", "r1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "journal status:      completed" in out
        assert "events decoded:      7" in out
        # Snapshots every 3 events: checkpoint at 6, one tail event.
        assert "events replayed:     1 (since checkpoint at 6)" in out

    def test_recover_storage_missing_run_exits_two(
        self, program_file, tmp_path, capsys
    ):
        spec = f"segment:{tmp_path / 'store'}"
        self._host_run(spec)
        code = main(
            ["recover", program_file, "--storage", spec, "--run-id", "ghost"]
        )
        assert code == 2
        assert "no records for run" in capsys.readouterr().err

    def test_compact_reclaims_superseded_snapshots(self, tmp_path, capsys):
        # Write the records directly (the registry compacts as it goes,
        # so a cleanly-closed hosted run has nothing left to reclaim).
        from repro.runtime.journal import (
            begin_record, end_record, event_record, snapshot_record,
        )
        from repro.storage import open_backend
        from repro.workflow import RunGenerator
        from repro.workflow.parser import parse_program

        program = parse_program(HIRING_TEXT)
        run = RunGenerator(program, seed=3).random_run(9)
        spec = f"segment:{tmp_path / 'store'}"
        backend = open_backend(spec)
        with backend.store("r1") as store:
            store.append(begin_record(run.initial))
            for index, event in enumerate(run.events):
                store.append(event_record(index, event))
                if (index + 1) % 2 == 0:
                    store.append(
                        snapshot_record(index, index + 1, run.instances[index])
                    )
            store.append(end_record("completed"))
        backend.close()
        code = main(["compact", "--storage", spec])
        out = capsys.readouterr().out
        assert code == 0
        # 9 events snapshotted every 2 leaves 4 snapshots; compaction
        # keeps only the latest.
        assert "r1:" in out
        assert "(3 reclaimed)" in out

    def test_compact_then_recover_is_lossless(
        self, program_file, tmp_path, capsys
    ):
        spec = f"file:{tmp_path / 'store'}"
        self._host_run(spec, events=8, snapshot_every=2)
        assert main(["compact", "--storage", spec, "--run-id", "r1"]) == 0
        capsys.readouterr()
        code = main(
            ["recover", program_file, "--storage", spec, "--run-id", "r1",
             "--full"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "events replayed:     8" in out
        # Compaction kept exactly the latest snapshot.
        assert "snapshots verified:  1" in out

    def test_compact_needs_a_target(self, capsys):
        assert main(["compact"]) == 2
        assert "compact needs" in capsys.readouterr().err

    def test_serve_with_storage_backend_roundtrip(self, tmp_path, capsys):
        """`serve --storage` keeps loadgen clean and leaves recoverable
        records behind."""
        import json as json_module
        import socket
        import threading
        import time

        from repro.cli import main as cli_main
        from repro.storage import open_backend

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        spec = f"segment:{tmp_path / 'store'}"
        server_rc = []
        thread = threading.Thread(
            target=lambda: server_rc.append(
                cli_main(
                    ["serve", "--workload", "churn", "--port", str(port),
                     "--storage", spec, "--max-resident", "2",
                     "--snapshot-every", "4"]
                )
            ),
            daemon=True,
        )
        thread.start()
        deadline = time.time() + 5
        while time.time() < deadline:
            try:
                with socket.create_connection(("127.0.0.1", port), 0.2):
                    break
            except OSError:
                time.sleep(0.05)

        code = main(
            ["loadgen", "--workload", "churn", "--port", str(port),
             "--runs", "4", "--events", "6", "--seed", "5",
             "--shutdown", "--json"]
        )
        thread.join(timeout=10)
        out = capsys.readouterr().out
        report, _ = json_module.JSONDecoder().raw_decode(out[out.index("{"):])
        assert code == 0
        assert report["clean"] is True
        assert server_rc == [0]
        # Every run left a sealed, replayable record trail behind.
        backend = open_backend(spec)
        try:
            run_ids = backend.run_ids()
            assert len(run_ids) == 4
            for run_id in run_ids:
                records, warnings = backend.read_records(run_id)
                assert warnings == []
                assert records[0]["type"] == "begin"
                assert records[-1] == {"type": "end", "status": "completed"}
                assert sum(r["type"] == "event" for r in records) == 6
        finally:
            backend.close()


class TestStorageErrorPaths:
    """compact/recover --storage diagnostics: wrong spec, empty store,
    missing runs all get one-line errors and documented exit codes."""

    def test_recover_unknown_backend_exits_two(self, program_file, capsys):
        code = main(
            ["recover", program_file, "--storage", "bogus:/tmp/x", "--run-id", "r"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown storage backend 'bogus'" in err

    def test_compact_unknown_backend_exits_two(self, capsys):
        code = main(["compact", "--storage", "carrier-pigeon:/tmp/x"])
        assert code == 2
        assert "unknown storage backend" in capsys.readouterr().err

    def test_recover_missing_store_dir_exits_two_without_creating_it(
        self, program_file, tmp_path, capsys
    ):
        missing = tmp_path / "never-written"
        code = main(
            [
                "recover", program_file,
                "--storage", f"segment:{missing}",
                "--run-id", "r1",
            ]
        )
        assert code == 2
        assert "no records for run 'r1'" in capsys.readouterr().err
        # A read-only diagnostic must not conjure an empty store.
        assert not missing.exists()

    def test_compact_empty_store_is_a_clean_noop(self, tmp_path, capsys):
        code = main(["compact", "--storage", f"segment:{tmp_path / 'empty'}"])
        assert code == 0
        assert "no runs to compact" in capsys.readouterr().out

    def test_compact_missing_run_exits_two(self, tmp_path, capsys):
        from repro.storage import open_backend
        from repro.runtime.journal import begin_record
        from repro.workflow import RunGenerator
        from repro.workflow.parser import parse_program

        spec = f"segment:{tmp_path / 'store'}"
        program = parse_program(HIRING_TEXT)
        run = RunGenerator(program, seed=1).random_run(1)
        backend = open_backend(spec)
        with backend.store("real") as store:
            store.append(begin_record(run.initial))
        backend.close()
        code = main(["compact", "--storage", spec, "--run-id", "ghost"])
        assert code == 2
        assert "no records for run 'ghost'" in capsys.readouterr().err
