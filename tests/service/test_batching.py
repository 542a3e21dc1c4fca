"""Batched drain E2E: per-event semantics survive amortization bit-for-bit.

The broker's ``batch_size`` and the ``submit_batch`` op only exist to
amortize per-event overhead; they must be *observationally invisible*.
These tests drive the same event sequence through a batch-1 service
(one ``submit`` per event) and a batched service (``submit_batch``
chunks drained as one amortized application) and require identical

* per-event acks — ``status``, ``seq``, ``attempts`` and the acting
  peer's post-event view ``version``;
* journal files — byte-for-byte (records and snapshot cadence are
  deterministic);
* provenance logs — every citation identical (modulo the tracing
  ``span_id``, which is explicitly not part of the contract);
* view-cache versions — every peer's final ``version`` and instance.
"""

from __future__ import annotations

import asyncio
import json

from repro.service import ServiceServer, WorkflowService
from repro.service.loadgen import ServiceClient
from repro.workflow.enumerate import RunGenerator
from repro.workflow.serialization import event_to_dict
from repro.workloads.generators import churn_program

EVENTS = 20


def generated_events(program, seed=11, count=EVENTS):
    return list(RunGenerator(program, seed=seed).random_run(count).events)


def scrub_span_ids(records):
    return [
        {key: value for key, value in record.items() if key != "span_id"}
        for record in records
    ]


async def drive(service, events, run_id, batch_size):
    """Submit *events*; returns (acks, provenance, views) snapshots."""
    server = ServiceServer(service, port=0)
    await server.start()
    client = await ServiceClient.connect(server.host, server.port)
    try:
        await client.expect_ok(op="open", run=run_id)
        acks = []
        if batch_size == 1:
            for event in events:
                response = await client.expect_ok(
                    op="submit", run=run_id, event=event_to_dict(event)
                )
                acks.append(response)
        else:
            for start in range(0, len(events), batch_size):
                chunk = events[start : start + batch_size]
                response = await client.expect_ok(
                    op="submit_batch",
                    run=run_id,
                    events=[{"event": event_to_dict(e)} for e in chunk],
                )
                acks.extend(response["results"])
        provenance = await client.expect_ok(op="provenance", run=run_id)
        views = {}
        for peer in service.program.schema.peers:
            views[peer] = await client.expect_ok(
                op="view", run=run_id, peer=peer
            )
        await client.expect_ok(op="close", run=run_id)
        return acks, provenance["records"], views
    finally:
        await client.close()
        await server.stop()


def journal_bytes(journal_dir):
    return {
        path.name: path.read_bytes()
        for path in sorted(journal_dir.rglob("*"))
        if path.is_file()
    }


class TestBatchedDrainBitIdentity:
    def test_batched_equals_sequential(self, tmp_path):
        program = churn_program()
        events = generated_events(program)

        async def main():
            sequential = await drive(
                WorkflowService(
                    program, storage=f"segment:{tmp_path / 'seq'}", batch_size=1
                ),
                events,
                "run-a",
                batch_size=1,
            )
            batched = await drive(
                WorkflowService(
                    program, storage=f"segment:{tmp_path / 'batch'}", batch_size=8
                ),
                events,
                "run-a",
                batch_size=8,
            )
            return sequential, batched

        (seq_acks, seq_prov, seq_views), (bat_acks, bat_prov, bat_views) = (
            asyncio.run(main())
        )

        # Per-event acks: status, seq, attempts, version — identical.
        assert len(seq_acks) == len(bat_acks) == len(events)
        for ack_a, ack_b in zip(seq_acks, bat_acks):
            for field in ("status", "seq", "attempts", "version", "recovered"):
                assert ack_a.get(field) == ack_b.get(field), field

        # Provenance: identical citations, span ids excepted.
        assert scrub_span_ids(seq_prov) == scrub_span_ids(bat_prov)

        # Views: every peer's final version and instance.
        for peer in program.schema.peers:
            assert seq_views[peer]["version"] == bat_views[peer]["version"]
            assert seq_views[peer]["instance"] == bat_views[peer]["instance"]

        # Journals: byte-for-byte identical files.
        seq_files = journal_bytes(tmp_path / "seq")
        bat_files = journal_bytes(tmp_path / "batch")
        assert seq_files.keys() == bat_files.keys()
        assert list(seq_files.keys()), "the journal must actually exist"
        for name in seq_files:
            assert seq_files[name] == bat_files[name], name

    def test_submit_batch_against_an_unbatched_broker(self):
        """The op works (per-item settle path) even at batch_size=1."""
        program = churn_program()
        events = generated_events(program, seed=21, count=10)

        async def main():
            one = await drive(
                WorkflowService(program, batch_size=1),
                events,
                "run-b",
                batch_size=1,
            )
            op_batched = await drive(
                WorkflowService(program, batch_size=1),
                events,
                "run-b",
                batch_size=5,
            )
            return one, op_batched

        (seq_acks, seq_prov, seq_views), (bat_acks, bat_prov, bat_views) = (
            asyncio.run(main())
        )
        assert [a.get("seq") for a in seq_acks] == [
            a.get("seq") for a in bat_acks
        ]
        assert [a.get("status") for a in seq_acks] == [
            a.get("status") for a in bat_acks
        ]
        assert scrub_span_ids(seq_prov) == scrub_span_ids(bat_prov)
        for peer in program.schema.peers:
            assert seq_views[peer]["version"] == bat_views[peer]["version"]

    def test_idempotent_seq_keys_in_a_batch(self):
        """Replaying a whole batch with seq keys dedupes every entry."""
        program = churn_program()
        events = generated_events(program, seed=31, count=6)

        async def main():
            service = WorkflowService(program, batch_size=8)
            server = ServiceServer(service, port=0)
            await server.start()
            client = await ServiceClient.connect(server.host, server.port)
            try:
                await client.expect_ok(op="open", run="run-c")
                entries = [
                    {"event": event_to_dict(e), "seq": i}
                    for i, e in enumerate(events)
                ]
                first = await client.expect_ok(
                    op="submit_batch", run="run-c", events=entries
                )
                replay = await client.expect_ok(
                    op="submit_batch", run="run-c", events=entries
                )
                return first, replay
            finally:
                await client.close()
                await server.stop()

        first, replay = asyncio.run(main())
        assert [r["seq"] for r in first["results"]] == list(range(len(events)))
        assert all(r["status"] == "applied" for r in first["results"])
        assert all(r.get("deduped") for r in replay["results"])
        assert [r["seq"] for r in replay["results"]] == [
            r["seq"] for r in first["results"]
        ]
        assert replay["applied"] == len(events)

    def test_batch_rejects_malformed_requests(self):
        program = churn_program()

        async def main():
            service = WorkflowService(program, batch_size=4)
            server = ServiceServer(service, port=0)
            await server.start()
            client = await ServiceClient.connect(server.host, server.port)
            try:
                await client.expect_ok(op="open", run="run-d")
                empty = await client.request(
                    op="submit_batch", run="run-d", events=[]
                )
                bad_entry = await client.request(
                    op="submit_batch", run="run-d", events=[{"seq": 0}]
                )
                bad_seq = await client.request(
                    op="submit_batch",
                    run="run-d",
                    events=[
                        {
                            "event": event_to_dict(
                                generated_events(program, seed=1, count=1)[0]
                            ),
                            "seq": -1,
                        }
                    ],
                )
                return empty, bad_entry, bad_seq
            finally:
                await client.close()
                await server.stop()

        empty, bad_entry, bad_seq = asyncio.run(main())
        for response in (empty, bad_entry, bad_seq):
            assert not response.get("ok")
            assert response.get("error") == "protocol"
