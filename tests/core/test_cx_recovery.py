"""Cx recovery protocol tests (paper §III.D / Table V)."""

import math

from repro.cluster import FailureInjector
from repro.cluster.builder import ROOT_HANDLE
from repro.core.records import RecordType
from repro.fs.ops import FileOperation, OpType
from repro.obs import check_trace
from repro.params import SimParams
from tests.conftest import build_cluster, run_to_completion, step_until


def cross_create(cluster, proc, parent, tag=""):
    for i in range(128):
        name = f"r{tag}{i}"
        h = cluster.placement.allocate_handle()
        if cluster.placement.is_cross_server(parent, name, h):
            return FileOperation(OpType.CREATE, proc.new_op_id(), parent=parent,
                                 name=name, target=h)
    raise AssertionError("no cross-server name")


def settle_cluster(cluster, extra=2.0):
    cluster.sim.run(until=cluster.sim.now + extra)


class TestRecoveryBasics:
    def _pending_crash_cluster(self):
        """Run ops with a huge commit timeout so they stay pending, then
        crash the coordinator of the last op."""
        cluster = build_cluster("cx", params=SimParams(commit_timeout=3600.0))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        ops = [cross_create(cluster, proc, d, tag=i) for i in range(6)]
        runner = cluster.run_ops(proc, ops)
        results = run_to_completion(cluster, runner)
        assert all(r.ok for r in results)
        victim = cluster.placement.dirent_server(d, ops[0].name)
        return cluster, d, ops, victim

    def test_recovery_recommits_pending_ops(self):
        cluster, d, ops, victim = self._pending_crash_cluster()
        server = cluster.servers[victim]
        pending_before = [
            op for op in ops if op.op_id in server.role.pending
            and server.role.pending[op.op_id].role in ("coord", "single")
        ]
        assert pending_before  # victim coordinates at least op[0]
        injector = FailureInjector(cluster)
        injector.crash_server(victim)
        report_proc = injector.recover_server(victim)
        report = run_to_completion(cluster, report_proc, limit=600)
        settle_cluster(cluster)
        for op in pending_before:
            assert server.role.completed[op.op_id]["committed"] is True
        assert report.duration > cluster.params.recovery_reboot_cost

    def test_namespace_consistent_after_recovery(self):
        from repro.analysis.consistency import check_namespace_invariants

        cluster, d, ops, victim = self._pending_crash_cluster()
        injector = FailureInjector(cluster)
        injector.crash_server(victim)
        run_to_completion(cluster, injector.recover_server(victim), limit=600)
        cluster.quiesce_protocol()
        assert check_namespace_invariants(cluster, known_dirs=[d]) == []

    def test_durable_effects_survive_crash(self):
        """Operations committed+flushed before the crash stay visible."""
        from repro.fs.objects import dirent_key

        cluster = build_cluster("cx", params=SimParams(commit_timeout=0.05))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_create(cluster, proc, d)
        runner = cluster.run_ops(proc, [op])
        run_to_completion(cluster, runner)
        settle_cluster(cluster)  # lazy commit + flush done
        victim = cluster.placement.dirent_server(d, op.name)
        injector = FailureInjector(cluster)
        injector.crash_server(victim)
        run_to_completion(cluster, injector.recover_server(victim), limit=600)
        server = cluster.servers[victim]
        assert server.kv.get(dirent_key(d, op.name)) is not None

    def test_recovery_quiesces_and_resumes_service(self):
        cluster, d, ops, victim = self._pending_crash_cluster()
        injector = FailureInjector(cluster)
        injector.crash_server(victim)
        rec = injector.recover_server(victim)
        run_to_completion(cluster, rec, limit=600)
        # All peers are unquiesced again and serve new requests.
        assert all(not s.quiesced for s in cluster.servers)
        proc = cluster.client_process(1, 0)
        op = cross_create(cluster, proc, d, tag="post")
        runner = cluster.run_ops(proc, [op])
        (res,) = run_to_completion(cluster, runner)
        assert res.ok

    def test_logs_pruned_after_recovery(self):
        cluster, d, ops, victim = self._pending_crash_cluster()
        injector = FailureInjector(cluster)
        injector.crash_server(victim)
        run_to_completion(cluster, injector.recover_server(victim), limit=600)
        settle_cluster(cluster)
        assert cluster.servers[victim].wal.ops_in_log() == []


class TestDecidedNotCompleted:
    """The coordinator crashed after its Commit-Record, before Complete:
    recovery adopts the logged decision and re-enters the live
    commitment at decision delivery (deliver → settle)."""

    def _decided_crash(self):
        """One cross-server create, stepped to the instant its decision
        is durable on the coordinator (COMMIT-REQ just left)."""
        cluster = build_cluster("cx")
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_create(cluster, proc, d)
        (res,) = run_to_completion(cluster, cluster.run_ops(proc, [op]))
        assert res.ok
        coord = cluster.servers[cluster.placement.dirent_server(d, op.name)]
        part = cluster.servers[cluster.placement.inode_server(op.target)]
        pend = coord.role.pending[op.op_id]
        step_until(cluster, lambda: pend.decided is not None)
        assert coord.wal.has_record(op.op_id, RecordType.COMMIT.value)
        assert not coord.wal.has_record(op.op_id, RecordType.COMPLETE.value)
        return cluster, op, coord, part

    def _assert_completed(self, cluster, op, coord):
        assert coord.role.completed[op.op_id]["committed"] is True
        assert coord.role.commit_mgr.parked == {}
        assert op.op_id not in coord.role.pending
        assert coord.wal.ops_in_log() == []
        cluster.quiesce_protocol()
        assert check_trace(cluster.tracer) == []

    def test_peer_up_decision_redelivered_and_completed(self):
        cluster, op, coord, part = self._decided_crash()
        injector = FailureInjector(cluster)
        injector.crash_server(coord.index)
        first_life = len(cluster.tracer.events)
        run_to_completion(cluster, injector.recover_server(coord.index), limit=600)
        # Settled inside the recovery pass, before RECOVERY-END.
        assert part.role.completed[op.op_id]["committed"] is True
        self._assert_completed(cluster, op, coord)
        # The adopted decision is on the trace before the shared tail's
        # write-back (the first life may have died before emitting it).
        names = [
            e.name for e in cluster.tracer.events[first_life:]
            if e.node == coord.node_id and e.op_id == op.op_id
            and e.name in ("decision", "writeback")
        ]
        assert names == ["decision", "writeback"]

    def test_peer_down_stays_parked_then_unparks_through_the_scan(self):
        cluster, op, coord, part = self._decided_crash()
        injector = FailureInjector(cluster)
        injector.crash_server(part.index)  # COMMIT-REQ dies on the wire
        injector.crash_server(coord.index)
        run_to_completion(cluster, injector.recover_server(coord.index), limit=600)
        # Unreachable peer: the op is left parked, records still logged.
        assert set(coord.role.commit_mgr.parked) == {op.op_id}
        assert coord.role.pending[op.op_id].decided is True
        assert op.op_id not in coord.role.completed
        assert coord.wal.has_record(op.op_id, RecordType.COMMIT.value)
        assert not coord.quiesced
        run_to_completion(cluster, injector.recover_server(part.index), limit=600)
        settle_cluster(cluster)  # the ordinary trigger scan re-delivers
        assert part.role.completed[op.op_id]["committed"] is True
        self._assert_completed(cluster, op, coord)
        assert coord.metrics.counter("commit.parked").value == 1

    def test_second_crash_mid_recovery_rederives_from_the_log(self):
        cluster, op, coord, part = self._decided_crash()
        injector = FailureInjector(cluster)
        injector.crash_server(coord.index)
        first = injector.recover_server(coord.index)
        # Adopted from the log, decision delivery in flight.
        step_until(cluster, lambda: coord.role.commit_mgr.parked)
        injector.crash_server(coord.index)
        assert coord.role.commit_mgr.parked == {}  # volatile: died with us
        assert coord.wal.has_record(op.op_id, RecordType.COMMIT.value)
        run_to_completion(cluster, injector.recover_server(coord.index), limit=600)
        assert first.processed  # the torn pass was killed with the server
        self._assert_completed(cluster, op, coord)
        assert coord.role.recovery.recoveries == 2


class TestParticipantCrash:
    def test_coordinator_retries_after_participant_reboot(self):
        """A commitment that hits a crashed participant reverts the ops
        to pending; the next trigger after recovery commits them."""
        cluster = build_cluster("cx", params=SimParams(commit_timeout=1.0))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_create(cluster, proc, d)
        runner = cluster.run_ops(proc, [op])
        run_to_completion(cluster, runner)
        part_idx = cluster.placement.inode_server(op.target)
        injector = FailureInjector(cluster)
        injector.crash_server(part_idx)
        # Let the lazy trigger fire against the dead participant.
        cluster.sim.run(until=cluster.sim.now + 2.0)
        coord = cluster.servers[cluster.placement.dirent_server(d, op.name)]
        assert op.op_id in coord.role.pending  # still pending, not lost
        run_to_completion(cluster, injector.recover_server(part_idx), limit=600)
        cluster.sim.run(until=cluster.sim.now + 3.0)
        assert coord.role.completed[op.op_id]["committed"] is True

    def test_participant_redo_from_result_record(self):
        """The participant's deferred updates are volatile; recovery
        must redo them from the Result-Record."""
        from repro.fs.objects import inode_key

        cluster = build_cluster("cx", params=SimParams(commit_timeout=3600.0))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_create(cluster, proc, d)
        runner = cluster.run_ops(proc, [op])
        run_to_completion(cluster, runner)
        part_idx = cluster.placement.inode_server(op.target)
        part = cluster.servers[part_idx]
        assert part.kv.get(inode_key(op.target)) is not None
        injector = FailureInjector(cluster)
        injector.crash_server(part_idx)
        assert part.kv.get(inode_key(op.target)) is None  # volatile, lost
        run_to_completion(cluster, injector.recover_server(part_idx), limit=600)
        cluster.quiesce_protocol()
        assert part.kv.get(inode_key(op.target)) is not None  # redone


class TestPeerHold:
    def test_coordinator_backs_off_from_a_crashed_participant(self):
        """Lazy ops whose participant is down for 3 s cost a few failed
        VOTE rounds on the retry schedule, not one per trigger fire (60
        here), and the participant's RECOVERY-END ends the hold: its
        last step (3.2 s, from about 2.8 s) would otherwise outlast the
        recovery by two seconds."""
        params = SimParams(commit_timeout=0.05, vote_retry_timeout=0.4)
        cluster = build_cluster("cx", params=params)
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        placement = cluster.placement
        proc = cluster.client_process(0, 0)
        coord_idx = placement.dirent_server(d, "h0")
        part_idx = (coord_idx + 1) % len(cluster.servers)
        names = [f"h{i}" for i in range(128)
                 if placement.dirent_server(d, f"h{i}") == coord_idx][:4]
        ops = [
            FileOperation(OpType.CREATE, proc.new_op_id(), parent=d, name=name,
                          target=placement.allocate_handle(part_idx))
            for name in names
        ]
        results = run_to_completion(cluster, cluster.run_ops(proc, ops))
        assert all(r.ok for r in results)
        coord = cluster.servers[coord_idx]
        assert all(op.op_id in coord.role.commit_mgr.lazy for op in ops)

        injector = FailureInjector(cluster)
        injector.crash_server(part_idx)
        cluster.sim.run(until=cluster.sim.now + 3.0)
        report = run_to_completion(
            cluster, injector.recover_server(part_idx), limit=600
        )
        cap = params.vote_retry_backoff_cap
        failed = coord.metrics.counter("commit.rpc_failed").value
        assert 1 <= failed <= math.ceil(math.log2(cap)) + 2
        # The END reached the coordinator before the pass returned.
        cluster.sim.run(until=report.recovery_end + params.commit_timeout)
        for op in ops:
            assert coord.role.completed[op.op_id]["committed"] is True


class TestRecoveryTiming:
    def test_recovery_time_grows_sublinearly_with_log(self):
        """Table V's shape: 100x the valid records << 100x the time."""
        def recovery_time(n_ops):
            cluster = build_cluster(
                "cx", num_servers=4, params=SimParams(commit_timeout=3600.0)
            )
            d = cluster.preload_dir(ROOT_HANDLE, "dir")
            proc = cluster.client_process(0, 0)
            ops = [cross_create(cluster, proc, d, tag=i) for i in range(n_ops)]
            runner = cluster.run_ops(proc, ops)
            run_to_completion(cluster, runner, limit=3000)
            victim = cluster.placement.dirent_server(d, ops[0].name)
            injector = FailureInjector(cluster)
            injector.crash_server(victim)
            report = run_to_completion(
                cluster, injector.recover_server(victim), limit=3000
            )
            return report.duration

        t_small = recovery_time(4)
        t_large = recovery_time(40)
        assert t_large > t_small
        assert t_large < 10 * t_small  # strongly sublinear


class TestClientRetry:
    def test_client_retry_after_server_crash(self):
        """With the retry timeout armed, an operation whose request died
        with the server completes after recovery (deduplicated)."""
        cluster = build_cluster(
            "cx",
            params=SimParams(commit_timeout=0.5, client_retry_timeout=2.0),
        )
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_create(cluster, proc, d)
        victim = cluster.placement.dirent_server(d, op.name)
        injector = FailureInjector(cluster)
        injector.crash_server(victim)  # crash BEFORE the request

        def scenario():
            res = yield from proc.perform(op)
            return res

        runner = cluster.sim.process(scenario())

        def recover_later():
            yield cluster.sim.timeout(0.5)
            yield injector.recover_server(victim)

        cluster.sim.process(recover_later())
        res = run_to_completion(cluster, runner, limit=600)
        assert res.ok
