"""Cx basic-protocol tests: gracious execution, disagreement, batching."""

from repro.cluster.builder import ROOT_HANDLE
from repro.core.records import RecordType
from repro.fs.ops import FileOperation, OpType
from repro.net.message import MessageKind
from repro.params import SimParams
from tests.conftest import build_cluster, run_to_completion


def cross_server_create(cluster, proc, parent, tag=""):
    """A create guaranteed to be cross-server."""
    for i in range(128):
        name = f"c{tag}{i}"
        h = cluster.placement.allocate_handle()
        if cluster.placement.is_cross_server(parent, name, h):
            return FileOperation(OpType.CREATE, proc.new_op_id(), parent=parent,
                                 name=name, target=h)
    raise AssertionError("no cross-server name found")


class TestGraciousExecution:
    """Fig. 2(a): both servers say YES; the process is done after one
    concurrent round trip; commitment happens lazily afterwards."""

    def test_response_after_single_round_trip(self):
        cluster = build_cluster("cx", params=SimParams(commit_timeout=1.0))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_server_create(cluster, proc, d)
        runner = cluster.run_ops(proc, [op])
        (res,) = run_to_completion(cluster, runner)
        assert res.ok
        # Latency must be ~one RTT + execution + log write — far less
        # than the two serial RPCs SE pays and the commit round 2PC pays.
        lat = cluster.metrics.ops[0].latency
        p = cluster.params
        assert lat < 2 * (2 * p.net_latency) + 2e-3

    def test_operation_pending_until_lazy_commitment(self):
        cluster = build_cluster("cx", params=SimParams(commit_timeout=0.5))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_server_create(cluster, proc, d)
        runner = cluster.run_ops(proc, [op])
        run_to_completion(cluster, runner)
        coord = cluster.servers[cluster.placement.dirent_server(d, op.name)]
        # Completed for the client, still pending on the coordinator.
        assert op.op_id in coord.role.pending
        assert coord.wal.has_record(op.op_id, RecordType.RESULT.value)
        # After the timeout trigger fires, it is committed and pruned.
        cluster.sim.run(until=cluster.sim.now + 2.0)
        assert op.op_id not in coord.role.pending
        assert coord.role.completed[op.op_id]["committed"] is True
        assert coord.wal.records_of(op.op_id) == []

    def test_result_record_shares_the_results_lists(self):
        """The Result-Record references the execution's own result (its
        redo/undo lists), not copies: one pending sub-op holds them once."""
        cluster = build_cluster("cx", params=SimParams(commit_timeout=0.5))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_server_create(cluster, proc, d)
        run_to_completion(cluster, cluster.run_ops(proc, [op]))
        shared = 0
        for server in cluster.servers:
            pend = server.role.pending.get(op.op_id)
            if pend is None:
                continue
            assert pend.record.payload.result is pend.result
            assert pend.result.updates and pend.result.undo
            shared += 1
        assert shared == 2  # coordinator and participant

    def test_participant_prunes_on_commit_record(self):
        cluster = build_cluster("cx", params=SimParams(commit_timeout=0.2))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_server_create(cluster, proc, d)
        runner = cluster.run_ops(proc, [op])
        run_to_completion(cluster, runner)
        cluster.sim.run(until=cluster.sim.now + 1.0)
        part = cluster.servers[cluster.placement.inode_server(op.target)]
        assert part.wal.records_of(op.op_id) == []

    def test_all_no_agreement_is_clean_failure(self):
        """Both sub-ops fail -> all-NO agreement -> no immediate commit
        from the client (lazy abort later)."""
        cluster = build_cluster("cx")
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        # remove of a non-existent file: entry missing AND inode missing
        for i in range(128):
            name = f"ghost{i}"
            h = cluster.placement.allocate_handle()
            if cluster.placement.is_cross_server(d, name, h):
                break
        op = FileOperation(OpType.REMOVE, proc.new_op_id(), parent=d, name=name, target=h)
        runner = cluster.run_ops(proc, [op])
        (res,) = run_to_completion(cluster, runner)
        assert not res.ok
        assert res.errno == "ENOENT"
        assert cluster.network.stats.count(MessageKind.L_COM) == 0


class TestDisagreement:
    """Fig. 2(b): mixed YES/NO -> L-COM -> immediate commitment -> ALL-NO."""

    def _run_disagreement(self):
        cluster = build_cluster("cx", params=SimParams(commit_timeout=60.0))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        # First create succeeds; second reuses the name with a fresh
        # inode: participant says YES (new inode), coordinator says NO
        # (duplicate entry) -> disagreement.
        for i in range(128):
            name = f"n{i}"
            h1 = cluster.placement.allocate_handle()
            h2 = cluster.placement.allocate_handle()
            if (cluster.placement.is_cross_server(d, name, h1)
                    and cluster.placement.is_cross_server(d, name, h2)):
                break
        op1 = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d, name=name, target=h1)
        op2 = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d, name=name, target=h2)
        runner = cluster.run_ops(proc, [op1, op2])
        results = run_to_completion(cluster, runner)
        return cluster, op2, results

    def test_lcom_and_all_no(self):
        cluster, _op2, (r1, r2) = self._run_disagreement()
        assert r1.ok
        assert not r2.ok and r2.errno == "EEXIST"
        assert cluster.network.stats.count(MessageKind.L_COM) == 1
        assert cluster.network.stats.count(MessageKind.ALL_NO) == 1

    def test_yes_side_is_aborted(self):
        cluster, op2, _results = self._run_disagreement()
        from repro.fs.objects import inode_key

        part = cluster.servers[cluster.placement.inode_server(op2.target)]
        assert part.kv.get(inode_key(op2.target)) is None
        assert part.role.completed[op2.op_id]["committed"] is False

    def test_abort_records_written_before_pruning(self):
        cluster, op2, _results = self._run_disagreement()
        coord_idx = cluster.placement.dirent_server(
            op2.parent, op2.name
        )
        coord = cluster.servers[coord_idx]
        # After the immediate commitment the records are pruned again.
        assert coord.wal.records_of(op2.op_id) == []
        assert coord.role.completed[op2.op_id]["committed"] is False


class TestBatching:
    def test_lazy_commitments_batch_messages(self):
        """N pending ops to the same participant commit with 4 messages."""
        cluster = build_cluster("cx", num_servers=2,
                                params=SimParams(commit_timeout=0.5))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        ops = []
        for i in range(200):
            name = f"b{i}"
            h = cluster.placement.allocate_handle(server=1)
            if cluster.placement.dirent_server(d, name) == 0:
                ops.append(FileOperation(OpType.CREATE, proc.new_op_id(),
                                         parent=d, name=name, target=h))
            if len(ops) == 10:
                break
        runner = cluster.run_ops(proc, ops)
        results = run_to_completion(cluster, runner)
        assert all(r.ok for r in results)
        cluster.network.stats.reset()
        cluster.sim.run(until=cluster.sim.now + 1.0)  # let the trigger fire
        stats = cluster.network.stats
        # One VOTE / one YES / one COMMIT-REQ / one ACK for all ten ops.
        assert stats.count(MessageKind.VOTE) == 1
        assert stats.count(MessageKind.COMMIT_REQ) == 1
        assert stats.count(MessageKind.ACK) == 1
        coord = cluster.servers[0]
        for op in ops:
            assert coord.role.completed[op.op_id]["committed"]

    def test_threshold_trigger_fires(self):
        cluster = build_cluster(
            "cx", params=SimParams(commit_timeout=None, commit_threshold=5)
        )
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        ops = [FileOperation(OpType.CREATE, proc.new_op_id(), parent=d, name=f"t{i}",
                             target=cluster.placement.allocate_handle())
               for i in range(20)]
        runner = cluster.run_ops(proc, ops)
        run_to_completion(cluster, runner)
        cluster.sim.run(until=cluster.sim.now + 1.0)
        fired = sum(s.role.triggers.threshold_fires for s in cluster.servers)
        assert fired >= 1

    def test_no_timer_means_manual_flush_needed(self):
        cluster = build_cluster(
            "cx", params=SimParams(commit_timeout=None, commit_threshold=None)
        )
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_server_create(cluster, proc, d)
        runner = cluster.run_ops(proc, [op])
        run_to_completion(cluster, runner)
        cluster.sim.run(until=cluster.sim.now + 5.0)
        coord = cluster.servers[cluster.placement.dirent_server(d, op.name)]
        assert op.op_id in coord.role.pending  # nothing fired
        cluster.quiesce_protocol()
        assert op.op_id not in coord.role.pending


class TestSingleServerOps:
    def test_single_server_update_commits_locally(self):
        cluster = build_cluster("cx", num_servers=1,
                                params=SimParams(commit_timeout=0.2))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d, name="only",
                           target=cluster.placement.allocate_handle())
        runner = cluster.run_ops(proc, [op])
        (res,) = run_to_completion(cluster, runner)
        assert res.ok
        cluster.network.stats.reset()
        cluster.sim.run(until=cluster.sim.now + 1.0)
        # Local commitment: no VOTE/COMMIT-REQ traffic at all.
        assert cluster.network.stats.count(MessageKind.VOTE) == 0
        server = cluster.servers[0]
        assert server.role.completed[op.op_id]["committed"]
        assert server.wal.records_of(op.op_id) == []

    def test_readonly_ops_leave_no_log_records(self):
        cluster = build_cluster("cx")
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        h = cluster.preload_file(d, "s")
        proc = cluster.client_process(0, 0)
        ops = [FileOperation(OpType.STAT, proc.new_op_id(), target=h),
               FileOperation(OpType.LOOKUP, proc.new_op_id(), parent=d, name="s")]
        runner = cluster.run_ops(proc, ops)
        results = run_to_completion(cluster, runner)
        assert all(r.ok for r in results)
        assert all(s.wal.valid_bytes == 0 for s in cluster.servers)


class TestLivenessTimers:
    def test_a_response_pushes_back_the_client_retry_deadline(self):
        """Each response refreshes the op's retry deadline: two answers
        0.6 R and 1.3 R after the send never trigger a resend."""
        retry = 0.01
        cluster = build_cluster(
            "cx", params=SimParams(commit_timeout=1.0, client_retry_timeout=retry)
        )
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_server_create(cluster, proc, d)
        net = cluster.network
        base = net.delay_for
        extra = {"coord": 0.6 * retry, "part": 1.3 * retry}
        net.delay_for = lambda msg: base(msg) + (
            extra[msg.payload["role"]]
            if msg.kind in (MessageKind.YES, MessageKind.NO) else 0.0
        )
        (res,) = run_to_completion(cluster, cluster.run_ops(proc, [op]))
        assert res.ok
        assert cluster.metrics.ops[0].latency > retry
        assert net.stats.count(MessageKind.REQ) == 2

    def test_threshold_only_still_redelivers_a_lost_decision(self):
        """No timeout trigger: the liveness scan still ticks every
        ``vote_retry_timeout``, so a decision whose COMMIT-REQ was lost
        is parked and then re-delivered, not stranded."""
        cluster = build_cluster("cx", params=SimParams(
            commit_timeout=None, commit_threshold=1, vote_retry_timeout=0.5,
        ))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_server_create(cluster, proc, d)
        dropped = []

        def drop_first_decision(msg):
            if msg.kind is MessageKind.COMMIT_REQ and not dropped:
                dropped.append(msg)
                return ("drop",)
            return None

        cluster.network.fault_hook = drop_first_decision
        run_to_completion(cluster, cluster.run_ops(proc, [op]))
        cluster.sim.run(until=cluster.sim.now + 3.0)
        assert dropped
        for server in cluster.servers:
            assert not server.role.pending and not server.role.commit_mgr.parked
        coord = cluster.servers[cluster.placement.dirent_server(d, op.name)]
        assert coord.role.completed[op.op_id]["committed"] is True
