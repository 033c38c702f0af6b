"""Micro-scale smoke tests of the experiment harness.

The real experiments replay ~10k operations; these shrink everything so
the plumbing (runners, result objects, rendering) stays covered by the
regular test suite.
"""

import pytest

from repro.experiments import (
    run_fig4,
    run_fig5,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments.common import (
    TRACE_SCALES,
    build_trace_cluster,
    experiment_params,
)
from repro.cluster.builder import ROOT_HANDLE, STALL_WINDOW, Stalled
from repro.runner import ReplayTask, execute_task
from tests.conftest import build_cluster, make_create


class TestCommon:
    def test_build_trace_cluster_shape(self):
        cluster = build_trace_cluster("cx", seed=1)
        assert len(cluster.servers) == 8
        assert len(cluster.all_processes()) == 32
        assert cluster.params.commit_timeout == pytest.approx(0.25)

    def test_experiment_params_overrides(self):
        p = experiment_params(commit_timeout=1.0, log_capacity=None)
        assert p.commit_timeout == 1.0 and p.log_capacity is None

    def test_trace_task_micro(self):
        res = execute_task(
            ReplayTask(kind="trace", trace="CTH", protocol="cx", scale=0.0005,
                       seed=1)
        )
        assert res.total_ops > 0
        assert res.failed_ops == 0
        assert res.protocol == "cx"

    def test_scales_cover_all_traces(self):
        from repro.workloads import TRACE_SPECS

        assert set(TRACE_SCALES) == set(TRACE_SPECS)


class TestSpecExperiments:
    def test_table1_rows(self):
        result = run_table1()
        assert len(result.rows) == 6
        assert "insert_entry" in result.text

    def test_table3_rows(self):
        result = run_table3()
        assert {r["message"] for r in result.rows} >= {"VOTE", "ALL-NO"}


class TestScaledExperiments:
    def test_table2_micro(self):
        result = run_table2(traces=["CTH"], seed=1)
        (row,) = result.rows
        assert row["trace"] == "CTH"
        assert row["measured_conflict_ratio"] >= 0

    def test_fig4_micro(self):
        result = run_fig4(traces=["s3d"], seed=1)
        (row,) = result.rows
        assert row["create"] > 0.2
        assert abs(sum(row[k] for k in row if k not in ("trace", "total")) - 1.0) < 1e-6

    def test_fig5_micro_single_trace(self):
        result = run_fig5(traces=["CTH"], seed=1)
        (row,) = result.rows
        assert row["cx_vs_ofs"] > 0.2
        assert row["ofs_time"] > row["cx_time"]


class TestTable5Guards:
    """The fill-and-crash drive fails loudly instead of hanging."""

    def _one_create(self, protocol):
        cluster = build_cluster(protocol, num_clients=1, procs_per_client=1)
        proc = cluster.client_process(0, 0)
        d = cluster.preload_dir(ROOT_HANDLE, "d")
        return cluster, {proc: [make_create(cluster, proc, d, "x")]}

    def test_drive_raises_when_queue_drains(self):
        cluster, streams = self._one_create("ofs")
        cluster.network.fault_hook = (  # every reply lost
            lambda msg: ("drop",) if msg.src.startswith("mds") else None
        )

        def crash_client():  # before its first retry; ofs has no timer
            yield cluster.sim.timeout(0.5)
            cluster.clients[0].crash()

        cluster.sim.process(crash_client())
        with pytest.raises(Stalled, match="event queue drained"):
            cluster.drive(streams)

    def test_drive_raises_past_stall_window(self):
        cluster, streams = self._one_create("cx")
        for server in cluster.servers:
            server.crash()  # the client retries for ever
        with pytest.raises(Stalled, match="no client op completed"):
            cluster.drive(streams)
        assert STALL_WINDOW - 1.0 <= cluster.sim.now <= STALL_WINDOW

    def test_drive_returns_on_completion(self):
        cluster, streams = self._one_create("cx")
        cluster.drive(streams)
        assert cluster.metrics.total_ops == 1
        assert cluster.last_completion == cluster.sim.now > 0

    def test_fill_and_crash_micro(self):
        """A tiny fill target exercises the feeder guard path end-to-end
        (feeders whose target is met exit as empty generators)."""
        from repro.experiments.table5 import _fill_and_crash

        report = _fill_and_crash(4, num_servers=4)
        assert report.server == 0
        assert report.valid_bytes_at_crash >= 4 * 1024
        assert report.duration > 0
