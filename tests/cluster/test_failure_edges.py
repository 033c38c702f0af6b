"""Failure-injector edge cases: double crash, bogus recovery, and a
coordinator dying mid-commitment.

The first two used to corrupt state silently (a double crash re-drained
queues and re-bumped the epoch of a node with no live traffic; a
recovery of a live server wiped its volatile protocol tables); both now
raise.  The third is the paper's core crash scenario and must converge
with zero safety violations once the coordinator recovers.
"""

import pytest

from repro import SimParams
from repro.cluster import FailureInjector
from repro.cluster.builder import ROOT_HANDLE
from repro.net.message import MessageKind
from repro.obs import InvariantChecker
from tests.conftest import build_cluster, make_create, run_to_completion, step_until


class TestCrashEdges:
    def test_double_crash_raises(self):
        cluster = build_cluster("cx")
        injector = FailureInjector(cluster)
        injector.crash_server(1)
        with pytest.raises(RuntimeError, match="already crashed"):
            injector.crash_server(1)

    def test_recover_without_crash_raises(self):
        cluster = build_cluster("cx")
        injector = FailureInjector(cluster)
        with pytest.raises(RuntimeError, match="not crashed"):
            injector.recover_server(0)

    def test_crash_at_skips_already_crashed(self):
        """The timed crasher must not double-crash a dead server."""
        cluster = build_cluster("cx")
        injector = FailureInjector(cluster)
        injector.crash_server_at(2, at=0.5)
        injector.crash_server(2)
        cluster.sim.run(until=1.0)  # the scheduled crasher fires: no-op
        assert cluster.servers[2].crashed

    def test_crash_recover_roundtrip(self):
        cluster = build_cluster("cx")
        injector = FailureInjector(cluster)
        injector.crash_server(0)
        report = run_to_completion(cluster, injector.recover_server(0))
        assert not cluster.servers[0].crashed
        assert report.server == 0
        assert report.duration > 0


class TestRecoveryCutShort:
    def test_peer_killed_mid_recovery_end_fan_out(self):
        """A peer dying while RECOVERY-END is on the wire is skipped by
        the guarded fan-out: the pass still resumes the file system."""
        cluster = build_cluster("cx")
        injector = FailureInjector(cluster)
        injector.crash_server(0)
        report_proc = injector.recover_server(0)
        sent = cluster.network.stats.count
        step_until(cluster, lambda: sent(MessageKind.RECOVERY_END) == 3)
        injector.crash_server(2)
        report = run_to_completion(cluster, report_proc, limit=600)
        assert report.server == 0 and report.duration > 0
        assert not cluster.servers[0].quiesced
        assert [s.quiesced for s in cluster.servers if not s.crashed] == [False] * 3
        assert cluster.servers[0].metrics.counter("commit.rpc_failed").value == 1

    def test_connection_error_backstop_resumes_the_file_system(self):
        """A ConnectionError that escapes the role's pass (none of
        today's paths lets one through) must not leave the cluster
        quiesced: peers are released, the report is still returned."""
        cluster = build_cluster("cx")
        server, peers = cluster.servers[0], cluster.servers[1:]
        injector = FailureInjector(cluster)
        injector.crash_server(0)
        real_pass = server.role.recover

        def torn_pass():
            gen = real_pass()
            for target in gen:  # RECOVERY-BEGIN fan-out, reboot cost
                yield target
                if all(p.quiesced for p in peers):
                    gen.close()
                    raise ConnectionError("peer lost on an unguarded path")

        server.role.recover = torn_pass
        report = run_to_completion(cluster, injector.recover_server(0), limit=600)
        assert report.server == 0
        assert server.metrics.counter("recovery.aborted").value == 1
        cluster.sim.run(until=cluster.sim.now + 1.0)  # RECOVERY-ENDs land
        assert [s.quiesced for s in cluster.servers] == [False] * 4

    def test_second_crash_kills_the_pass_and_still_reports(self):
        cluster = build_cluster("cx")
        injector = FailureInjector(cluster)
        injector.crash_server(0)
        report_proc = injector.recover_server(0)
        step_until(cluster, lambda: cluster.servers[0].quiesced)
        injector.crash_server(0)
        report = run_to_completion(cluster, report_proc)
        assert report.server == 0
        assert report.recovery_end == cluster.sim.now
        assert cluster.servers[0].crashed and not cluster.servers[0]._owned


class TestCrashAtEvent:
    def test_crashes_at_exact_event_index(self):
        cluster = build_cluster("cx")
        injector = FailureInjector(cluster)
        sim = cluster.sim
        injector.crash_server_at_event(1, 200)
        assert not cluster.servers[1].crashed
        sim.run(until=sim.now + 5.0)  # heartbeats alone reach index 200
        assert cluster.servers[1].crashed
        assert sim.events_processed >= 200

    def test_probe_skips_already_crashed(self):
        cluster = build_cluster("cx")
        injector = FailureInjector(cluster)
        sim = cluster.sim
        injector.crash_server_at_event(3, 100)
        injector.crash_server(3)
        sim.run(until=sim.now + 5.0)  # the probe fires: no-op
        assert cluster.servers[3].crashed


class TestCoordinatorCrashMidCommit:
    def test_converges_with_zero_violations(self):
        """Crash a coordinator while its lazy commitments are pending,
        recover it, and require a clean, fully-decided trace."""
        cluster = build_cluster(
            "cx",
            params=SimParams(commit_timeout=0.05, client_retry_timeout=1.0),
        )
        sim = cluster.sim
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        runners = []
        for i, proc in enumerate(cluster.all_processes()):
            def feeder(proc=proc, i=i):
                for k in range(4):
                    yield from proc.perform(
                        make_create(cluster, proc, d, f"f{i}-{k}")
                    )
            runners.append(sim.process(feeder()))
        done = sim.all_of(runners)
        run_to_completion(cluster, done)

        # Every op executed; coordinators still hold lazy commitments.
        injector = FailureInjector(cluster)
        injector.crash_server(0)
        # Let the survivors' in-flight commitment traffic toward the
        # dead coordinator dead-letter and time out.
        sim.run(until=sim.now + 0.5)
        run_to_completion(cluster, injector.recover_server(0))
        cluster.quiesce_protocol()

        violations = InvariantChecker(cluster.tracer.events).check_safety()
        assert violations == []
        for server in cluster.servers:
            assert not server.role.pending, (
                f"{server.node_id} still holds pending ops after recovery"
            )
