"""End-to-end tests of the JSON-lines TCP front end."""

from __future__ import annotations

import asyncio

import pytest

from repro.service import ServiceClient, ServiceServer, WorkflowService
from repro.service.protocol import decode_line, encode_message, parse_request
from repro.service.errors import ProtocolError
from repro.workflow import RunGenerator, execute
from repro.service.loadgen import _canonical_view
from repro.workflow.enumerate import applicable_events
from repro.workflow.serialization import event_to_dict, instance_to_dict
from repro.workloads.generators import churn_program


def run_server_scenario(scenario, **service_kwargs):
    """Start an in-process server on an ephemeral port, run *scenario*."""
    program = churn_program()

    async def main():
        service = WorkflowService(program, **service_kwargs)
        server = ServiceServer(service, port=0)
        await server.start()
        try:
            return await scenario(program, server)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestProtocolUnit:
    def test_round_trip(self):
        message = {"op": "ping", "id": 7}
        assert decode_line(encode_message(message)) == message

    def test_malformed_lines_rejected(self):
        for line in (b"", b"   \n", b"not json\n", b"[1,2]\n"):
            with pytest.raises(ProtocolError):
                decode_line(line)

    def test_requests_validated(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "fly"})
        with pytest.raises(ProtocolError):
            parse_request({"op": "submit", "run": "r"})  # no event
        with pytest.raises(ProtocolError):
            parse_request({"op": "view", "run": "r"})  # no peer
        op, _ = parse_request({"op": "ping"})
        assert op == "ping"


class TestServerEndToEnd:
    def test_full_session(self):
        async def scenario(program, server):
            run = RunGenerator(program, seed=2).random_run(10)
            client = await ServiceClient.connect(server.host, server.port)
            try:
                pong = await client.expect_ok(op="ping", id=1)
                assert pong["id"] == 1 and pong["pong"]

                opened = await client.expect_ok(op="open", run="r")
                assert opened["recovered"] is False

                versions = []
                for seq, event in enumerate(run.events):
                    response = await client.expect_ok(
                        op="submit", run="r", event=event_to_dict(event)
                    )
                    assert response["status"] == "applied"
                    assert response["seq"] == seq
                    versions.append(response["version"])

                peer = program.schema.peers[0]
                view = await client.expect_ok(op="view", run="r", peer=peer)
                expected = program.schema.view_instance(run.final_instance, peer)
                assert _canonical_view(view["instance"]) == _canonical_view(
                    instance_to_dict(expected)
                )
                assert view["version"] == versions[-1]

                explain = await client.expect_ok(
                    op="explain", run="r", peer="auditor"
                )
                assert isinstance(explain["scenario"], list)
                assert len(explain["rules"]) == len(explain["scenario"])

                stats = await client.expect_ok(op="stats")
                assert stats["registry"]["hosted_runs"] == 1
                assert stats["broker"]["applied"] == len(run.events)

                closed = await client.expect_ok(op="close", run="r")
                assert closed["applied"] == len(run.events)
            finally:
                await client.close()

        run_server_scenario(scenario)

    def test_applicable_op_matches_from_scratch_enumeration(self):
        """The ``applicable`` op serves the delta-maintained index, and
        its answer equals a from-scratch enumeration at the run's
        current instance (peer-filtered when ``peer`` is given)."""

        async def scenario(program, server):
            run = RunGenerator(program, seed=5).random_run(8)
            client = await ServiceClient.connect(server.host, server.port)
            try:
                await client.expect_ok(op="open", run="r")
                # Query once on the empty run so later submits exercise
                # the incremental advance path rather than a fresh build.
                initial = await client.expect_ok(op="applicable", run="r")
                assert initial["applied"] == 0
                for event in run.events:
                    await client.expect_ok(
                        op="submit", run="r", event=event_to_dict(event)
                    )

                response = await client.expect_ok(op="applicable", run="r")
                assert response["applied"] == len(run.events)
                assert response["count"] == len(response["events"])
                expected = [
                    event_to_dict(event)
                    for event in applicable_events(program, run.final_instance)
                ]
                assert response["events"] == expected

                peer = program.schema.peers[0]
                filtered = await client.expect_ok(
                    op="applicable", run="r", peer=peer
                )
                assert filtered["events"] == [
                    encoded
                    for event, encoded in zip(
                        applicable_events(program, run.final_instance), expected
                    )
                    if event.peer == peer
                ]

                bad = await client.request(op="applicable", run="r", peer="martian")
                assert bad["ok"] is False and bad["error"] == "service"
            finally:
                await client.close()

        run_server_scenario(scenario)

    def test_error_codes_are_stable(self):
        async def scenario(program, server):
            client = await ServiceClient.connect(server.host, server.port)
            try:
                response = await client.request(op="view", run="ghost", peer="maker")
                assert response["ok"] is False
                assert response["error"] == "unknown_run"

                response = await client.request(op="open")
                assert response["error"] == "protocol"

                await client.expect_ok(op="open", run="r")
                response = await client.request(op="view", run="r", peer="martian")
                assert response["error"] == "service"

                response = await client.request(
                    op="submit", run="r", event={"rule": "no-such-rule"}
                )
                assert response["ok"] is False

                response = await client.request(op="open", run="r")
                assert response["error"] == "duplicate_run"
            finally:
                await client.close()

        run_server_scenario(scenario)

    def test_shutdown_request_stops_the_server(self):
        program = churn_program()

        async def main():
            service = WorkflowService(program)
            server = ServiceServer(service, port=0)
            await server.start()
            serving = asyncio.create_task(server.serve_until_shutdown())
            client = await ServiceClient.connect(server.host, server.port)
            await client.expect_ok(op="open", run="r")
            response = await client.expect_ok(op="shutdown")
            assert response["shutting_down"]
            await client.close()
            await asyncio.wait_for(serving, timeout=5)

        asyncio.run(main())

    def test_suspended_runs_resume_across_server_lives(self, tmp_path):
        """Stop a journaled server mid-run; a new server resumes the run."""
        program = churn_program()
        run = RunGenerator(program, seed=4).random_run(8)

        async def first_life():
            service = WorkflowService(program, storage=f"segment:{tmp_path}")
            server = ServiceServer(service, port=0)
            await server.start()
            client = await ServiceClient.connect(server.host, server.port)
            await client.expect_ok(op="open", run="r")
            for event in run.events[:5]:
                await client.expect_ok(
                    op="submit", run="r", event=event_to_dict(event)
                )
            await client.close()
            await server.stop()  # seals the journal as "suspended"

        async def second_life():
            service = WorkflowService(program, storage=f"segment:{tmp_path}")
            server = ServiceServer(service, port=0)
            await server.start()
            client = await ServiceClient.connect(server.host, server.port)
            opened = await client.expect_ok(op="open", run="r")
            assert opened["recovered"] is True
            assert opened["applied"] == 5
            for event in run.events[5:]:
                response = await client.expect_ok(
                    op="submit", run="r", event=event_to_dict(event)
                )
                assert response["status"] == "applied"
            peer = program.schema.peers[0]
            view = await client.expect_ok(op="view", run="r", peer=peer)
            await client.close()
            await server.stop()
            return view["instance"]

        asyncio.run(first_life())
        served = asyncio.run(second_life())
        replayed = execute(program, run.events, check_freshness=False)
        expected = program.schema.view_instance(
            replayed.final_instance, program.schema.peers[0]
        )
        assert _canonical_view(served) == _canonical_view(instance_to_dict(expected))


class TestObservabilityOps:
    """The protocol's observability surface: metrics, provenance, version."""

    def test_responses_carry_the_protocol_version(self):
        from repro.service.protocol import PROTOCOL_VERSION

        async def scenario(program, server):
            client = await ServiceClient.connect(server.host, server.port)
            try:
                pong = await client.expect_ok(op="ping")
                assert pong["protocol"] == PROTOCOL_VERSION
                failure = await client.request(op="view", run="ghost", peer="maker")
                assert failure["protocol"] == PROTOCOL_VERSION
            finally:
                await client.close()

        run_server_scenario(scenario)

    def test_requests_may_pin_a_protocol_version(self):
        from repro.service.protocol import PROTOCOL_VERSION

        async def scenario(program, server):
            client = await ServiceClient.connect(server.host, server.port)
            try:
                ok = await client.request(op="ping", protocol=PROTOCOL_VERSION)
                assert ok["ok"]
                too_new = await client.request(
                    op="ping", protocol=PROTOCOL_VERSION + 1
                )
                assert too_new["ok"] is False
                assert too_new["error"] == "protocol"
            finally:
                await client.close()

        run_server_scenario(scenario)

    def test_metrics_op_returns_parseable_prometheus_text(self):
        async def scenario(program, server):
            run = RunGenerator(program, seed=3).random_run(6)
            client = await ServiceClient.connect(server.host, server.port)
            try:
                await client.expect_ok(op="open", run="r")
                for event in run.events:
                    await client.expect_ok(
                        op="submit", run="r", event=event_to_dict(event)
                    )
                response = await client.expect_ok(op="metrics")
            finally:
                await client.close()
            return response

        response = run_server_scenario(scenario)
        text = response["text"]
        families = set()
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                name, kind = line.split()[2:4]
                families.add(name)
                assert kind in ("counter", "gauge", "histogram")
            elif not line.startswith("#"):
                sample, value = line.rsplit(" ", 1)
                float(value)  # every sample line ends in a number
        assert "repro_service_requests_total" in families
        assert "repro_engine_events_applied_total" in families
        snapshot = response["snapshot"]
        assert snapshot["repro_service_requests_total"].get("submit,ok", 0) >= 6

    def test_applicable_requests_are_not_applied_events(self):
        """``repro_engine_events_applied_total`` rises once per acked
        submit; the applicability probes behind ``applicable`` add
        nothing to it."""

        async def scenario(program, server):
            run = RunGenerator(program, seed=4).random_run(8)
            client = await ServiceClient.connect(server.host, server.port)

            async def applied_total():
                response = await client.expect_ok(op="metrics")
                return response["snapshot"]["repro_engine_events_applied_total"].get("", 0)

            try:
                await client.expect_ok(op="open", run="r")
                before = await applied_total()
                probed = 0
                for event in run.events:
                    acked = await client.expect_ok(
                        op="submit", run="r", event=event_to_dict(event)
                    )
                    assert acked["status"] == "applied"
                    for peer in (None, event.peer):
                        extra = {} if peer is None else {"peer": peer}
                        response = await client.expect_ok(op="applicable", run="r", **extra)
                        probed += response["count"]
                after = await applied_total()
            finally:
                await client.close()
            return after - before, len(run.events), probed

        risen, submitted, probed = run_server_scenario(scenario)
        assert probed > 0
        assert risen == submitted

    def test_provenance_op_answers_both_directions(self):
        async def scenario(program, server):
            run = RunGenerator(program, seed=5).random_run(8)
            client = await ServiceClient.connect(server.host, server.port)
            try:
                await client.expect_ok(op="open", run="r")
                for event in run.events:
                    await client.expect_ok(
                        op="submit", run="r", event=event_to_dict(event)
                    )
                full = await client.expect_ok(op="provenance", run="r")
                assert len(full["records"]) == len(run.events)
                relation = full["records"][0]["touched"][0]["relation"]
                by_relation = await client.expect_ok(
                    op="provenance", run="r", relation=relation
                )
                assert 0 in by_relation["seqs"]
                peer = run.events[0].peer
                by_peer = await client.expect_ok(
                    op="provenance", run="r", peer=peer
                )
                assert 0 in by_peer["seqs"]
                bad = await client.request(op="provenance", run="r", peer="martian")
                assert bad["error"] == "service"
            finally:
                await client.close()

        run_server_scenario(scenario)

    def test_provenance_rank_op_attributes_events(self):
        import pytest as _pytest

        import repro.service.server as server_module

        async def scenario(program, server):
            run = RunGenerator(program, seed=5).random_run(8)
            peer = program.schema.peers[0]
            client = await ServiceClient.connect(server.host, server.port)
            try:
                await client.expect_ok(op="open", run="r")
                for event in run.events:
                    await client.expect_ok(
                        op="submit", run="r", event=event_to_dict(event)
                    )
                ranked = await client.expect_ok(
                    op="provenance_rank", run="r", peer=peer
                )
                assert ranked["target"] == f"view@{peer}"
                assert ranked["method"] == "exact"
                assert len(ranked["ranking"]) == len(run.events)
                # efficiency: the attributions sum to v(N) - v(empty)
                assert ranked["total"] == _pytest.approx(
                    ranked["grand"] - ranked["baseline"]
                )
                assert ranked["total"] == _pytest.approx(
                    sum(e["value"] for e in ranked["ranking"])
                )
                # each entry carries its provenance citation
                for entry in ranked["ranking"]:
                    citation = entry["provenance"]
                    assert citation["seq"] == entry["position"]
                    assert citation["rule"] == entry["rule"]

                # deterministic sampled ranking under a pinned seed
                first = await client.expect_ok(
                    op="provenance_rank", run="r", peer=peer,
                    method="sampled", samples=32, seed=9,
                )
                second = await client.expect_ok(
                    op="provenance_rank", run="r", peer=peer,
                    method="sampled", samples=32, seed=9,
                )
                assert first["ranking"] == second["ranking"]

                bad_peer = await client.request(
                    op="provenance_rank", run="r", peer="martian"
                )
                assert bad_peer["error"] == "service"
                bad_method = await client.request(
                    op="provenance_rank", run="r", peer=peer, method="magic"
                )
                assert bad_method["error"] == "protocol"
                keyless = await client.request(
                    op="provenance_rank", run="r", peer=peer, key=1
                )
                assert keyless["error"] == "protocol"

                # rankings over the work cap are refused, not computed
                server_module.MAX_RANK_STEPS = 4
                try:
                    refused = await client.request(
                        op="provenance_rank", run="r", peer=peer
                    )
                finally:
                    server_module.MAX_RANK_STEPS = 1 << 16
                assert refused["error"] == "service"
                assert "capped" in refused["message"]
            finally:
                await client.close()

        run_server_scenario(scenario)

    def test_sampled_ranking_is_bounded_by_the_work_cap(self):
        # Two events memoize to four coalitions, so only the per-permutation
        # poll stops a million shuffles from holding the event loop.
        async def scenario(program, server):
            run = RunGenerator(program, seed=5).random_run(2)
            client = await ServiceClient.connect(server.host, server.port)
            try:
                await client.expect_ok(op="open", run="r")
                for event in run.events:
                    await client.expect_ok(
                        op="submit", run="r", event=event_to_dict(event)
                    )
                refused = await client.request(
                    op="provenance_rank", run="r", peer="maker",
                    method="sampled", samples=10**6,
                )
                assert refused["error"] == "service"
                assert "capped" in refused["message"]
                await client.expect_ok(op="ping")
            finally:
                await client.close()

        run_server_scenario(scenario)

    def test_explain_cites_provenance_records(self):
        async def scenario(program, server):
            run = RunGenerator(program, seed=6).random_run(8)
            client = await ServiceClient.connect(server.host, server.port)
            try:
                await client.expect_ok(op="open", run="r")
                for event in run.events:
                    await client.expect_ok(
                        op="submit", run="r", event=event_to_dict(event)
                    )
                peer = program.schema.peers[0]
                explain = await client.expect_ok(op="explain", run="r", peer=peer)
            finally:
                await client.close()
            return explain

        explain = run_server_scenario(scenario)
        citations = explain["provenance"]
        assert [c["seq"] for c in citations] == explain["scenario"]
        for citation in citations:
            assert citation["rule"] in {r for r in explain["rules"]}
            assert citation["touched"]


class TestLineDiscipline:
    """Malformed and oversized request lines get structured replies.

    Neither may cost the client its connection: the server drains an
    oversized line through its newline so the stream stays framed, and
    a non-JSON line is answered with a ``protocol`` error envelope.
    """

    def run_small_line_scenario(self, scenario, max_line_bytes=512):
        program = churn_program()

        async def main():
            service = WorkflowService(program)
            server = ServiceServer(service, port=0, max_line_bytes=max_line_bytes)
            await server.start()
            try:
                return await scenario(program, server)
            finally:
                await server.stop()

        return asyncio.run(main())

    def test_oversized_line_is_discarded_not_the_connection(self):
        async def scenario(program, server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                writer.write(b'{"op": "ping", "pad": "' + b"x" * 2048 + b'"}\n')
                await writer.drain()
                response = decode_line(await reader.readline())
                assert response["ok"] is False
                assert response["error"] == "protocol"
                assert "exceeds" in response["message"]
                # The oversized line was drained through its newline:
                # the same connection keeps serving.
                writer.write(encode_message({"op": "ping", "id": 2}))
                await writer.drain()
                pong = decode_line(await reader.readline())
                assert pong["ok"] and pong["id"] == 2
            finally:
                writer.close()
                await writer.wait_closed()

        self.run_small_line_scenario(scenario)

    def test_lines_up_to_the_cap_still_parse(self):
        async def scenario(program, server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                overhead = len(encode_message({"op": "ping", "pad": ""}))
                line = encode_message({"op": "ping", "pad": "x" * (512 - overhead)})
                assert len(line) == 512
                writer.write(line)
                await writer.drain()
                response = decode_line(await reader.readline())
                assert response["ok"]
            finally:
                writer.close()
                await writer.wait_closed()

        self.run_small_line_scenario(scenario)

    def test_malformed_json_keeps_the_connection(self):
        async def scenario(program, server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                for junk in (b"not json\n", b"[1, 2]\n", b"   \n"):
                    writer.write(junk)
                    await writer.drain()
                    response = decode_line(await reader.readline())
                    assert response["ok"] is False
                    assert response["error"] == "protocol"
                writer.write(encode_message({"op": "ping", "id": 9}))
                await writer.drain()
                pong = decode_line(await reader.readline())
                assert pong["ok"] and pong["id"] == 9
            finally:
                writer.close()
                await writer.wait_closed()

        self.run_small_line_scenario(scenario)


_BAD_EVENTS = {
    "no-rule": {"valuation": {}},
    "list-valuation": {"rule": "make", "valuation": [1]},
    "list-value": {"rule": "make", "valuation": {"x": [1, 2]}},
    "null-value": {"rule": "make", "valuation": {"x": None}},
    "bad-fresh": {"rule": "make", "valuation": {"x": {"$fresh": "x"}}},
}

_MALFORMED = {
    "explain-index-str": {"op": "explain", "peer": "maker", "index": "abc"},
    "explain-index-null": {"op": "explain", "peer": "maker", "index": None},
    "explain-index-list": {"op": "explain", "peer": "maker", "index": [1]},
    **{
        f"submit-{name}": {"op": "submit", "event": event}
        for name, event in _BAD_EVENTS.items()
    },
    **{
        f"batch-{name}": {"op": "submit_batch", "events": [{"event": event}]}
        for name, event in _BAD_EVENTS.items()
    },
    "stats-run-int": {"op": "stats", "run": 5},
    "open-initial-str": {"op": "open", "run": "other", "initial": "x"},
    "provenance-list-relation": {"op": "provenance", "relation": ["Obj"]},
    "provenance-bad-key": {
        "op": "provenance", "relation": "Obj", "key": {"$fresh": "x"},
    },
    "rank-exact-too-long": {
        "op": "provenance_rank", "peer": "maker", "method": "exact",
    },
    "rank-zero-samples": {
        "op": "provenance_rank", "peer": "maker", "method": "sampled",
        "samples": 0,
    },
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_field_is_answered_and_keeps_the_connection(name):
    """A bad field value gets ``ok: false``; the request behind it is served."""

    async def scenario(program, server):
        run = RunGenerator(program, seed=3).random_run(20)
        client = await ServiceClient.connect(server.host, server.port)
        try:
            await client.expect_ok(op="open", run="r")
            for event in run.events:
                await client.expect_ok(
                    op="submit", run="r", event=event_to_dict(event)
                )
        finally:
            await client.close()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            writer.write(encode_message({"run": "r", "id": 1, **_MALFORMED[name]}))
            writer.write(encode_message({"op": "ping", "id": 2}))
            await writer.drain()
            replies = [await reader.readline() for _ in range(2)]
        finally:
            writer.close()
            await writer.wait_closed()
        assert all(replies), "the server dropped the connection"
        failure, pong = (decode_line(line) for line in replies)
        assert failure["ok"] is False and failure["id"] == 1
        assert pong["ok"] and pong["id"] == 2

    run_server_scenario(scenario)


class TestShutdownDrain:
    """The shutdown response is a durability barrier, not a courtesy."""

    def test_shutdown_persists_every_applied_event_before_acking(self, tmp_path):
        from repro.runtime.checkpoint import fast_recover
        from repro.storage import open_backend

        program = churn_program()
        events = list(RunGenerator(program, seed=9).random_run(8).events)

        async def main():
            service = WorkflowService(
                program, storage=f"segment:{tmp_path / 'store'}", durability="flush"
            )
            server = ServiceServer(service, port=0)
            await server.start()
            serving = asyncio.create_task(server.serve_until_shutdown())
            client = await ServiceClient.connect(server.host, server.port)
            try:
                await client.expect_ok(op="open", run="d-1")
                for event in events:
                    await client.expect_ok(
                        op="submit", run="d-1", event=event_to_dict(event)
                    )
                response = await client.expect_ok(op="shutdown")
                assert response["shutting_down"] is True
                assert response["drained"] is True
                assert response["synced_runs"] >= 1
            finally:
                await client.close()
            await asyncio.wait_for(serving, timeout=5)

        asyncio.run(main())
        # Everything acknowledged before the shutdown ack is on disk.
        backend = open_backend(f"segment:{tmp_path / 'store'}")
        try:
            records, warnings = backend.read_records("d-1")
            assert not warnings
            resumed = fast_recover(program, records)
            assert [event_to_dict(e) for e in resumed.events] == [
                event_to_dict(e) for e in events
            ]
        finally:
            backend.close()


class TestProvenanceSurvivesRecovery:
    """Provenance answers are identical before and after recovery.

    A recovered run rebuilds its provenance log by replay on first
    read (:meth:`HostedRun.provenance_log`) — the cluster's promotion
    path relies on this for bit-identical explains.
    """

    def test_provenance_op_identical_across_server_lives(self, tmp_path):
        program = churn_program()
        run = RunGenerator(program, seed=13).random_run(9)

        async def life(expect_recovered):
            service = WorkflowService(
                program, storage=f"segment:{tmp_path / 'store'}"
            )
            server = ServiceServer(service, port=0)
            await server.start()
            client = await ServiceClient.connect(server.host, server.port)
            try:
                opened = await client.expect_ok(op="open", run="r")
                assert opened["recovered"] is expect_recovered
                if not expect_recovered:
                    for event in run.events:
                        await client.expect_ok(
                            op="submit", run="r", event=event_to_dict(event)
                        )
                full = await client.expect_ok(op="provenance", run="r")
                peer = program.schema.peers[0]
                explain = await client.expect_ok(op="explain", run="r", peer=peer)
            finally:
                await client.close()
                await server.stop()
            return full["records"], explain

        first_records, first_explain = asyncio.run(life(expect_recovered=False))
        second_records, second_explain = asyncio.run(life(expect_recovered=True))
        assert len(first_records) == len(run.events)
        assert second_records == first_records
        assert second_explain == first_explain
