"""The loadgen harness as a checker: clean reports under fault injection."""

from __future__ import annotations

import asyncio

from repro.obs.metrics import METRICS, MetricFamily
from repro.runtime.faults import FaultPlan
from repro.service import ServiceClient, ServiceServer, WorkflowService, run_loadgen
from repro.workloads.generators import churn_program


def drive(program, service_kwargs, loadgen_kwargs):
    async def main():
        service = WorkflowService(program, **service_kwargs)
        server = ServiceServer(service, port=0)
        await server.start()
        try:
            return await run_loadgen(
                program, server.host, server.port, **loadgen_kwargs
            )
        finally:
            await server.stop()

    return asyncio.run(main())


class TestLoadgen:
    def test_sixty_four_concurrent_runs_stay_ordered(self):
        """The acceptance bar: 64 concurrent runs, per-run FIFO intact."""
        program = churn_program()
        report = drive(
            program,
            {},
            dict(runs=64, events_per_run=5, seed=1, verify=False),
        )
        assert report.runs == 64
        assert report.submitted == report.applied + report.quarantined
        assert report.ordering_violations == 0
        assert report.clean

    def test_verified_views_without_faults(self):
        program = churn_program()
        report = drive(
            program,
            {},
            dict(runs=8, events_per_run=12, seed=2, verify=True, view_every=4),
        )
        assert report.applied == report.submitted == 8 * 12
        assert report.quarantined == 0
        assert report.verified_views == 8 * len(program.schema.peers)
        assert report.clean

    def test_fault_injected_session_stays_consistent(self, tmp_path):
        """Crashes, transients and poisons: views must still verify."""
        program = churn_program()
        report = drive(
            program,
            dict(
                storage=f"segment:{tmp_path}",
                fault_plan=FaultPlan(
                    seed=13, crash_rate=0.08, transient_rate=0.08, poison_rate=0.02
                ),
            ),
            dict(runs=16, events_per_run=15, seed=3, verify=True),
        )
        assert report.submitted == 16 * 15
        assert report.applied + report.quarantined == report.submitted
        assert report.recoveries > 0, "the crash rate must actually fire"
        assert report.ordering_violations == 0
        assert report.consistency_violations == 0
        assert report.clean

    def test_multi_client_batched_session_verifies(self):
        """N connections + submit_batch chunks: same checks, same clean."""
        program = churn_program()
        report = drive(
            program,
            dict(batch_size=8),
            dict(
                runs=12,
                events_per_run=10,
                seed=5,
                verify=True,
                clients=3,
                batch_size=4,
            ),
        )
        assert report.clean
        assert report.applied == report.submitted == 12 * 10
        assert report.clients == 3 and report.batch_size == 4
        assert len(report.client_stats) == 3
        assert sum(stats.runs for stats in report.client_stats) == 12
        assert sum(stats.applied for stats in report.client_stats) == 120
        assert all(stats.events_per_second > 0 for stats in report.client_stats)
        per_client = report.to_dict()["per_client"]
        assert [c["client"] for c in per_client] == [0, 1, 2]

    def test_batched_fault_injected_session_stays_consistent(self, tmp_path):
        """Faults force the broker off the batched fast path; the report
        must stay exactly as clean as the one-event-at-a-time drain."""
        program = churn_program()
        report = drive(
            program,
            dict(
                storage=f"segment:{tmp_path}",
                batch_size=4,
                fault_plan=FaultPlan(
                    seed=17, crash_rate=0.08, transient_rate=0.08, poison_rate=0.02
                ),
            ),
            dict(runs=8, events_per_run=12, seed=6, verify=True, batch_size=4),
        )
        assert report.submitted == 8 * 12
        assert report.applied + report.quarantined == report.submitted
        assert report.ordering_violations == 0
        assert report.consistency_violations == 0
        assert report.clean


def test_client_reads_a_metrics_answer_over_64_kib(monkeypatch):
    """A ``metrics`` answer renders the whole process's registry, which
    grows with its label series: the client must read a reply longer
    than asyncio's default 64 KiB line limit."""
    family = MetricFamily(
        "repro_test_wide_reply_series", "Series that widen a metrics answer",
        "counter", ("series",),
    )
    for index in range(3000):
        family.labels(series=f"s{index}").inc()
    monkeypatch.setitem(METRICS._families, family.name, family)

    async def main():
        server = ServiceServer(WorkflowService(churn_program()), port=0)
        await server.start()
        try:
            client = await ServiceClient.connect(server.host, server.port)
            try:
                return await client.request(op="metrics")
            finally:
                await client.close()
        finally:
            await server.stop()

    response = asyncio.run(main())
    assert response["ok"]
    assert len(response["text"]) > 64 * 1024
    assert 'repro_test_wide_reply_series{series="s2999"} 1' in response["text"]
