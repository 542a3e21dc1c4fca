"""The read path answers from what the write path already computed.

``applicable`` for one peer builds and update-checks only that peer's
candidate events, yet answers exactly that peer's share of the full
from-scratch enumeration over the run's used values — fresh values
included, because other peers' rules still mint the values the full
enumeration would mint for them.  Update-check outcomes are cached, so
a warm index checks only part of that share.  The provenance ops take
keys in the protocol's value encoding, and a relation the peer cannot
see is refused instead of dropping the connection.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import ServiceClient, ServiceServer, WorkflowService
from repro.service.registry import HostedRun
from repro.workflow import Instance, eventindex
from repro.workflow.domain import FreshValue
from repro.workflow.enumerate import RunGenerator, applicable_events
from repro.workflow.serialization import event_to_dict, value_to_json
from repro.workloads import family_names, fuzz_program, get_family


def _hosted(program):
    hosted = HostedRun("r", program, Instance.empty(program.schema.schema))
    hosted.event_index()
    return hosted


def _assert_applicable_matches_scratch(program, hosted):
    scratch = list(
        applicable_events(program, hosted.instance, used_values=hosted.used_values)
    )
    for peer in program.schema.peers:
        assert [event_to_dict(e) for e in hosted.applicable(peer)] == [
            event_to_dict(e) for e in scratch if e.peer == peer
        ], peer


@pytest.mark.parametrize("name", family_names())
def test_applicable_matches_filtered_enumeration_on_families(name):
    """After every event of a 40-event stream, every peer's answer is
    its share of the from-scratch enumeration at the same instance."""
    family = get_family(name)
    program = family.program()
    run = family.run(seed=1, steps=40, program=program)
    hosted = _hosted(program)
    _assert_applicable_matches_scratch(program, hosted)
    for event in run.events:
        hosted.apply(event)
        _assert_applicable_matches_scratch(program, hosted)


@pytest.mark.parametrize("seed", range(12))
def test_applicable_matches_filtered_enumeration_on_fuzzed_programs(seed):
    """In every family only one peer's rules mint fresh values, and they
    come first, so a fresh-value numbering slip shows only on programs
    where another peer's minting rule precedes the asking peer's: the
    fuzzer grows such programs."""
    program = fuzz_program(seed)
    run = RunGenerator(program, seed=seed).random_run(12)
    hosted = _hosted(program)
    _assert_applicable_matches_scratch(program, hosted)
    for event in run.events:
        hosted.apply(event)
        _assert_applicable_matches_scratch(program, hosted)


@pytest.mark.parametrize("name", family_names())
def test_applicable_checks_only_the_asking_peers_candidates(name, monkeypatch):
    """``HostedRun.applicable(p)`` update-checks only candidates of ``p``
    that the full enumeration checks: on a cold index exactly those, on a
    warm one (outcomes cached by earlier answers) a subset of them, and
    never another peer's."""
    family = get_family(name)
    program = family.program()
    run = family.run(seed=1, steps=40, program=program)
    hosted = _hosted(program)
    checked = []
    original = eventindex.event_applicable

    def counting(schema, instance, event, *args, **kwargs):
        checked.append(event_to_dict(event))
        return original(schema, instance, event, *args, **kwargs)

    def cold():
        """A hosted run over the same history, its index never asked."""
        return HostedRun(
            "cold", program, hosted.initial, instance=hosted.instance,
            events=hosted.events,
        )

    monkeypatch.setattr(eventindex, "event_applicable", counting)
    others_skipped = cold_checks = warm_checks = 0
    for position, event in enumerate(run.events):
        hosted.apply(event)
        if position % 5:
            continue
        checked.clear()
        cold().applicable()
        full = list(checked)
        peers = {program.rule(entry["rule"]).peer for entry in full}
        for peer in program.schema.peers:
            share = [
                entry for entry in full if program.rule(entry["rule"]).peer == peer
            ]
            checked.clear()
            cold().applicable(peer)
            assert checked == share
            cold_checks += len(checked)
            checked.clear()
            hosted.applicable(peer)
            assert all(entry in share for entry in checked)
            assert len(checked) == len({repr(entry) for entry in checked})
            warm_checks += len(checked)
            others_skipped += len(peers - {peer})
    assert others_skipped > 0
    assert warm_checks < cold_checks


# ----------------------------------------------------------------------
# Provenance ops over TCP
# ----------------------------------------------------------------------


def _serve(program, scenario):
    async def main():
        service = WorkflowService(program)
        server = ServiceServer(service, port=0)
        await server.start()
        try:
            client = await ServiceClient.connect(server.host, server.port)
            try:
                return await asyncio.wait_for(scenario(client), timeout=60)
            finally:
                await client.close()
        finally:
            await server.stop()

    return asyncio.run(main())


@pytest.fixture(scope="module")
def ecommerce_stream():
    family = get_family("ecommerce")
    program = family.program()
    run = family.run(seed=1000, steps=12, program=program)
    return family.observer, program, run


def _fresh_key_seen_by(program, run, peer):
    """A fresh-valued key the first event wrote and *peer* can see."""
    schema = program.schema
    first = run.events[0]
    for atom in first.ground_insertions():
        relation = atom.view.relation.name
        key = atom.key_term.value
        visible = schema.view_instance(run.final_instance, peer)
        if (
            isinstance(key, FreshValue)
            and schema.view(relation, peer) is not None
            and key in visible.keys(f"{relation}@{peer}")
        ):
            return relation, key
    raise AssertionError("the stream's first event wrote no visible fresh key")


def test_provenance_finds_fresh_keys_in_the_protocol_encoding(ecommerce_stream):
    observer, program, run = ecommerce_stream
    relation, key = _fresh_key_seen_by(program, run, observer)

    async def scenario(client):
        await client.expect_ok(op="open", run="r")
        for event in run.events:
            await client.expect_ok(op="submit", run="r", event=event_to_dict(event))
        touching = await client.expect_ok(
            op="provenance", run="r", relation=relation, key=value_to_json(key)
        )
        ranked = await client.expect_ok(
            op="provenance_rank", run="r", peer=observer,
            relation=relation, key=value_to_json(key),
        )
        cited = await client.expect_ok(
            op="provenance_rank", run="r", peer=observer,
            relation=relation, key=repr(key),
        )
        return touching, ranked, cited

    touching, ranked, cited = _serve(program, scenario)
    assert 0 in touching["seqs"]
    assert [record["seq"] for record in touching["records"]] == touching["seqs"]
    assert ranked["grand"] == 1.0
    assert any(entry["value"] > 0 for entry in ranked["ranking"])
    # The spelling responses cite (the value's repr) still ranks alike.
    assert cited["grand"] == ranked["grand"]
    assert cited["ranking"] == ranked["ranking"]


def test_provenance_rank_refuses_an_unseen_relation(ecommerce_stream):
    observer, program, run = ecommerce_stream

    async def scenario(client):
        await client.expect_ok(op="open", run="r")
        await client.expect_ok(op="submit", run="r", event=event_to_dict(run.events[0]))
        refused = await client.request(
            op="provenance_rank", run="r", peer=observer, relation="Nope"
        )
        pong = await client.request(op="ping")
        return refused, pong

    refused, pong = _serve(program, scenario)
    assert refused["ok"] is False and refused["error"] == "service"
    assert "Nope" in refused["message"]
    assert pong["ok"] is True and pong["pong"] is True
