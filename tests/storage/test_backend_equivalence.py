"""Property tests: every backend hosts bit-identical runs.

The memory backend is the semantic reference (it reproduces the
pre-storage service exactly); the segment backend and the eviction path
must be observationally indistinguishable from it — same sequence
numbers, same per-peer views, same applicable events, same explanation
structure, same stats.
"""

from __future__ import annotations

import asyncio

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.service.registry import ShardedRunRegistry
from repro.storage import MemoryBackend, SegmentBackend
from repro.workflow import Event, FreshValue, RunGenerator, Var
from repro.workloads.generators import churn_program

PROGRAM = churn_program()
PEERS = list(PROGRAM.schema.peers)


def generated_events(count, seed):
    """A legal event sequence for the churn program, deterministic in seed."""
    run = RunGenerator(PROGRAM, seed=seed).random_run(count)
    return list(run.events)


def observe(hosted):
    """Every externally visible product of a hosted run, comparable."""
    return {
        "views": {peer: hosted.view_instance(peer) for peer in PEERS},
        "view_versions": {peer: hosted.view_version(peer) for peer in PEERS},
        "applicable": hosted.applicable(),
        "explanations": {
            peer: [
                sorted(hosted.explainer(peer).explanation_of(i))
                for i in hosted.explainer(peer).visible_indices()
            ]
            for peer in PEERS
        },
        "instance": hosted.instance,
        "stats": {
            k: v
            for k, v in hosted.stats().items()
            if k not in ("explainers",)  # populated lazily by this probe
        },
    }


def drive(events, backend, snapshot_every, max_resident=None):
    """Apply per-run event sequences alternating across runs; observe all.

    *events* maps run_id → its (independently legal) event sequence.
    Alternating between runs is what makes ``max_resident=1`` evict and
    rehydrate on every switch.
    """

    async def scenario():
        registry = ShardedRunRegistry(
            PROGRAM,
            storage=backend,
            snapshot_every=snapshot_every,
            max_resident=max_resident,
        )
        for run_id in events:
            await registry.open(run_id)
        seqs = []
        longest = max((len(seq) for seq in events.values()), default=0)
        for index in range(longest):
            for run_id, sequence in events.items():
                if index >= len(sequence):
                    continue
                hosted = await registry.get(run_id)
                seq, _ = hosted.apply(sequence[index])
                hosted.submitted += 1
                seqs.append((run_id, seq))
        # Compacting a store changes nothing observable: under
        # max_resident=1 each observation below rehydrates a run from
        # its compacted records.
        for run_id in events:
            (await registry.get(run_id)).journal.store.compact()
        result = {"seqs": seqs}
        for run_id in events:
            result[run_id] = observe(await registry.get(run_id))
        for run_id in events:
            await registry.close(run_id)
        backend.close()
        return result

    return asyncio.run(scenario())


def two_runs(count, seed):
    return {
        "a": generated_events(count, seed),
        "b": generated_events(count, seed + 1000),
    }


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    count=st.integers(min_value=0, max_value=24),
    seed=st.integers(min_value=0, max_value=6),
    snapshot_every=st.integers(min_value=1, max_value=7),
)
def test_all_backends_equivalent_to_memory(tmp_path_factory, count, seed, snapshot_every):
    events = two_runs(count, seed)
    tmp = tmp_path_factory.mktemp("eq")
    reference = drive(events, MemoryBackend(), snapshot_every)
    assert drive(events, SegmentBackend(tmp / "seg"), snapshot_every) == reference


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    count=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=6),
    snapshot_every=st.integers(min_value=1, max_value=7),
)
def test_eviction_is_transparent(tmp_path_factory, count, seed, snapshot_every):
    """max_resident=1 forces an eviction/rehydration per alternation; the
    observable products must not change."""
    events = two_runs(count, seed)
    tmp = tmp_path_factory.mktemp("evict")
    resident = drive(events, SegmentBackend(tmp / "resident"), snapshot_every)
    evicting = drive(
        events, SegmentBackend(tmp / "evicting"), snapshot_every, max_resident=1
    )
    # Eviction round-trips bump the recovery counter; everything else is
    # identical.
    for side in ("a", "b"):
        evicting[side]["stats"].pop("recoveries")
        resident[side]["stats"].pop("recoveries")
    assert evicting == resident


def test_memory_eviction_also_transparent(tmp_path):
    events = two_runs(20, seed=3)
    resident = drive(events, MemoryBackend(), 5)
    evicting = drive(events, MemoryBackend(), 5, max_resident=1)
    for side in ("a", "b"):
        evicting[side]["stats"].pop("recoveries")
        resident[side]["stats"].pop("recoveries")
    assert evicting == resident
