"""Tests for the ablation protocol variants."""

from repro.cluster.builder import ROOT_HANDLE
from repro.fs.ops import FileOperation, OpType
from repro.params import SimParams
from tests.conftest import build_cluster, run_to_completion


class TestCxSerialExec:
    def test_semantics_match_cx(self):
        """Same outcomes as full Cx for a mixed scenario."""
        def run(protocol):
            cluster = build_cluster(protocol, seed=21)
            d = cluster.preload_dir(ROOT_HANDLE, "dir")
            proc = cluster.client_process(0, 0)
            ops = []
            for i in range(15):
                ops.append(FileOperation(OpType.CREATE, proc.new_op_id(),
                                         parent=d, name=f"f{i}",
                                         target=cluster.placement.allocate_handle()))
            ops.append(FileOperation(OpType.CREATE, proc.new_op_id(), parent=d,
                                     name="f0",
                                     target=cluster.placement.allocate_handle()))
            runner = cluster.run_ops(proc, ops)
            results = run_to_completion(cluster, runner)
            cluster.quiesce_protocol()
            return [r.ok for r in results]

        assert run("cx-serial-exec") == run("cx")

    def test_serial_exec_is_slower_than_cx(self):
        def latency(protocol):
            cluster = build_cluster(protocol, seed=3)
            d = cluster.preload_dir(ROOT_HANDLE, "dir")
            proc = cluster.client_process(0, 0)
            ops = [FileOperation(OpType.CREATE, proc.new_op_id(), parent=d,
                                 name=f"x{i}",
                                 target=cluster.placement.allocate_handle())
                   for i in range(25)]
            runner = cluster.run_ops(proc, ops)
            run_to_completion(cluster, runner)
            return cluster.metrics.mean_latency(cross_only=True)

        assert latency("cx-serial-exec") > latency("cx") * 1.3

    def test_threshold_one_commits_every_op_immediately(self):
        from repro.net.message import MessageKind

        cluster = build_cluster(
            "cx", params=SimParams(commit_timeout=None, commit_threshold=1)
        )
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        ops = [FileOperation(OpType.CREATE, proc.new_op_id(), parent=d,
                             name=f"t{i}",
                             target=cluster.placement.allocate_handle())
               for i in range(10)]
        runner = cluster.run_ops(proc, ops)
        results = run_to_completion(cluster, runner)
        assert all(r.ok for r in results)
        cluster.quiesce_protocol()
        cross = cluster.metrics.cross_server_ops
        # One VOTE per cross-server op: no batching happened.
        assert cluster.network.stats.count(MessageKind.VOTE) >= cross
        for s in cluster.servers:
            assert s.wal.valid_bytes == 0  # everything committed + pruned
