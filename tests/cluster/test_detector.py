"""Unit tests for the heartbeat failure detector."""

import pytest

from repro.cluster import FailureDetector, FailureInjector
from repro.cluster.builder import ROOT_HANDLE
from repro.fs.ops import FileOperation, OpType
from repro.params import SimParams
from tests.conftest import build_cluster, run_to_completion


class TestValidation:
    def test_interval_positive(self):
        cluster = build_cluster("cx")
        with pytest.raises(ValueError):
            FailureDetector(cluster, interval=0)

    def test_misses_at_least_one(self):
        cluster = build_cluster("cx")
        with pytest.raises(ValueError):
            FailureDetector(cluster, misses_to_declare=0)


class TestDetection:
    def test_healthy_cluster_never_declared(self):
        cluster = build_cluster("cx")
        detected = []
        fd = FailureDetector(cluster, interval=0.2, misses_to_declare=2,
                             on_crash=detected.append)
        fd.start()
        cluster.sim.run(until=5.0)
        assert detected == []
        assert fd.declared == set()

    def test_crash_detected_within_bound(self):
        cluster = build_cluster("cx")
        detected = []
        fd = FailureDetector(cluster, interval=0.2, misses_to_declare=3,
                             on_crash=detected.append)
        fd.start()
        injector = FailureInjector(cluster)
        injector.crash_server_at(2, at=1.0)
        cluster.sim.run(until=5.0)
        assert detected == [2]
        # Declared after >= misses_to_declare intervals past the crash.
        assert fd.declarations == 1

    def test_detection_latency_scales_with_interval(self):
        def detect_time(interval):
            cluster = build_cluster("cx")
            times = []
            fd = FailureDetector(cluster, interval=interval, misses_to_declare=2,
                                 on_crash=lambda i: times.append(cluster.sim.now))
            fd.start()
            FailureInjector(cluster).crash_server_at(0, at=0.5)
            cluster.sim.run(until=20.0)
            return times[0] - 0.5

        assert detect_time(1.0) > detect_time(0.1)

    def test_clear_rearms_detection(self):
        cluster = build_cluster("cx")
        detected = []
        fd = FailureDetector(cluster, interval=0.2, misses_to_declare=2,
                             on_crash=detected.append)
        fd.start()
        injector = FailureInjector(cluster)
        injector.crash_server(1)
        cluster.sim.run(until=2.0)
        assert detected == [1]
        cluster.servers[1].reboot()
        fd.clear(1)
        cluster.sim.run(until=4.0)
        assert detected == [1]  # healthy again, no re-declaration
        injector.crash_server(1)
        cluster.sim.run(until=6.0)
        assert detected == [1, 1]

    def test_stop_halts_probing(self):
        cluster = build_cluster("cx")
        detected = []
        fd = FailureDetector(cluster, interval=0.2, misses_to_declare=2,
                             on_crash=detected.append)
        fd.start()
        fd.stop()
        FailureInjector(cluster).crash_server(0)
        cluster.sim.run(until=5.0)
        assert detected == []

    def test_heartbeats_not_counted_as_protocol_traffic(self):
        from repro.net.message import MessageKind

        cluster = build_cluster("cx")
        fd = FailureDetector(cluster, interval=0.1)
        fd.start()
        cluster.sim.run(until=2.0)
        stats = cluster.network.stats
        assert stats.by_kind[MessageKind.PING] > 0
        assert stats.total == 0  # excluded from the Table-IV totals

    def test_quiesced_server_still_answers_heartbeats(self):
        cluster = build_cluster("cx")
        detected = []
        fd = FailureDetector(cluster, interval=0.2, misses_to_declare=2,
                             on_crash=detected.append)
        fd.start()
        cluster.servers[0].quiesce()
        cluster.sim.run(until=3.0)
        assert detected == []


class TestProbeFailureVisibility:
    """Failed probes are counted and traced, never silently swallowed."""

    def test_probe_failures_counted_and_traced(self):
        cluster = build_cluster("cx")
        fd = FailureDetector(cluster, interval=0.2, misses_to_declare=3)
        fd.start()
        FailureInjector(cluster).crash_server_at(1, at=0.5)
        cluster.sim.run(until=3.0)
        assert fd.metrics.counter("probe.failed").value >= 3
        failures = [e for e in cluster.tracer.events
                    if e.name == "probe.failed"]
        assert failures
        target = cluster.server_id(1)
        assert all(e.args["target"] == target for e in failures)
        assert {e.args["reason"] for e in failures} <= {
            "connection-error", "timeout",
        }

    def test_healthy_cluster_counts_no_failures(self):
        cluster = build_cluster("cx")
        fd = FailureDetector(cluster, interval=0.2)
        fd.start()
        cluster.sim.run(until=3.0)
        assert fd.metrics.counter("probe.failed").value == 0
        assert not any(e.name == "probe.failed"
                       for e in cluster.tracer.events)


class TestEndToEndAutoRecovery:
    def test_detect_then_recover_then_serve(self):
        """Detector fires -> recovery runs -> cluster serves again."""
        cluster = build_cluster(
            "cx", params=SimParams(commit_timeout=0.1, client_retry_timeout=3.0)
        )
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        injector = FailureInjector(cluster)
        recoveries = []

        def auto_recover(index):
            proc = injector.recover_server(index)
            proc.callbacks.append(lambda ev: recoveries.append(index))

        fd = FailureDetector(cluster, interval=0.2, misses_to_declare=2,
                             on_crash=auto_recover)
        fd.start()
        injector.crash_server_at(0, at=0.5)
        cluster.sim.run(until=15.0)
        assert recoveries == [0]
        proc = cluster.client_process(0, 0)
        op = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d, name="after",
                           target=cluster.placement.allocate_handle(server=0))
        runner = cluster.run_ops(proc, [op])
        (res,) = run_to_completion(cluster, runner)
        assert res.ok
