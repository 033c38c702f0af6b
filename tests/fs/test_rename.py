"""Rename: the >2-server operation the paper scopes out of Cx
(footnote 1), implemented as an eager cross-shard transaction shared by
every protocol."""

import pytest

from repro.cluster import FailureInjector
from repro.cluster.builder import ROOT_HANDLE
from repro.fs.objects import dirent_key, inode_key
from repro.fs.ops import FileOperation, OpType, split_operation
from tests.conftest import build_cluster, run_to_completion, step_until

ALL_PROTOCOLS = ["ofs", "ofs-batched", "2pc", "ce", "cx"]


def rename_op(cluster, proc, d1, name, d2, new_name, target):
    return FileOperation(OpType.RENAME, proc.new_op_id(), parent=d1, name=name,
                         target=target, new_parent=d2, new_name=new_name)


class TestPlanning:
    def test_rename_needs_all_fields(self):
        with pytest.raises(ValueError):
            FileOperation(OpType.RENAME, (1, 1, 1), parent=0, name="a")

    def test_rename_plan_is_flagged(self):
        cluster = build_cluster("cx")
        for i in range(128):
            src, dst = f"s{i}", f"d{i}"
            if (cluster.placement.dirent_server(0, src)
                    != cluster.placement.dirent_server(1, dst)):
                break
        op = FileOperation(OpType.RENAME, (1, 1, 1), parent=0, name=src,
                           target=5, new_parent=1, new_name=dst)
        plan = split_operation(op, cluster.placement)
        assert plan.is_rename
        assert plan.cross_server
        assert plan.coordinator == cluster.placement.dirent_server(0, src)
        assert plan.participant == cluster.placement.dirent_server(1, dst)

    def test_same_shard_rename_is_single(self):
        cluster = build_cluster("cx")
        for i in range(256):
            src, dst = f"s{i}", f"d{i}"
            if (cluster.placement.dirent_server(0, src)
                    == cluster.placement.dirent_server(0, dst)):
                break
        op = FileOperation(OpType.RENAME, (1, 1, 1), parent=0, name=src,
                           target=5, new_parent=0, new_name=dst)
        plan = split_operation(op, cluster.placement)
        assert plan.is_rename and not plan.cross_server


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestRenameSemantics:
    def test_cross_dir_rename_moves_entry(self, protocol):
        cluster = build_cluster(protocol)
        d1 = cluster.preload_dir(ROOT_HANDLE, "a")
        d2 = cluster.preload_dir(ROOT_HANDLE, "b")
        h = cluster.preload_file(d1, "old")
        proc = cluster.client_process(0, 0)
        op = rename_op(cluster, proc, d1, "old", d2, "new", h)
        runner = cluster.run_ops(proc, [op])
        (res,) = run_to_completion(cluster, runner)
        assert res.ok
        src = cluster.servers[cluster.placement.dirent_server(d1, "old")]
        dst = cluster.servers[cluster.placement.dirent_server(d2, "new")]
        assert src.kv.get(dirent_key(d1, "old")) is None
        entry = dst.kv.get(dirent_key(d2, "new"))
        assert entry is not None and entry.target == h
        # The inode is untouched (POSIX rename keeps it).
        iserver = cluster.servers[cluster.placement.inode_server(h)]
        assert iserver.kv.get(inode_key(h)).nlink == 1

    def test_rename_missing_source_enoent(self, protocol):
        cluster = build_cluster(protocol)
        d1 = cluster.preload_dir(ROOT_HANDLE, "a")
        d2 = cluster.preload_dir(ROOT_HANDLE, "b")
        proc = cluster.client_process(0, 0)
        op = rename_op(cluster, proc, d1, "ghost", d2, "new", 999)
        runner = cluster.run_ops(proc, [op])
        (res,) = run_to_completion(cluster, runner)
        assert not res.ok and res.errno == "ENOENT"

    def test_rename_existing_destination_eexist_and_atomic(self, protocol):
        cluster = build_cluster(protocol)
        d1 = cluster.preload_dir(ROOT_HANDLE, "a")
        d2 = cluster.preload_dir(ROOT_HANDLE, "b")
        h = cluster.preload_file(d1, "old")
        h2 = cluster.preload_file(d2, "taken")
        proc = cluster.client_process(0, 0)
        op = rename_op(cluster, proc, d1, "old", d2, "taken", h)
        runner = cluster.run_ops(proc, [op])
        (res,) = run_to_completion(cluster, runner)
        assert not res.ok and res.errno == "EEXIST"
        # Atomic failure: source entry untouched, destination unchanged.
        src = cluster.servers[cluster.placement.dirent_server(d1, "old")]
        dst = cluster.servers[cluster.placement.dirent_server(d2, "taken")]
        assert src.kv.get(dirent_key(d1, "old")) is not None
        assert dst.kv.get(dirent_key(d2, "taken")).target == h2

    def test_rename_logs_are_pruned(self, protocol):
        cluster = build_cluster(protocol)
        d1 = cluster.preload_dir(ROOT_HANDLE, "a")
        d2 = cluster.preload_dir(ROOT_HANDLE, "b")
        h = cluster.preload_file(d1, "old")
        proc = cluster.client_process(0, 0)
        op = rename_op(cluster, proc, d1, "old", d2, "new", h)
        runner = cluster.run_ops(proc, [op])
        run_to_completion(cluster, runner)
        for server in cluster.servers:
            assert server.wal.records_of(op.op_id) == []

    def test_rename_then_stat_consistent(self, protocol):
        from repro.analysis.consistency import check_namespace_invariants

        cluster = build_cluster(protocol)
        d1 = cluster.preload_dir(ROOT_HANDLE, "a")
        d2 = cluster.preload_dir(ROOT_HANDLE, "b")
        h = cluster.preload_file(d1, "old")
        proc = cluster.client_process(0, 0)
        ops = [
            rename_op(cluster, proc, d1, "old", d2, "new", h),
            FileOperation(OpType.STAT, proc.new_op_id(), target=h),
            FileOperation(OpType.LOOKUP, proc.new_op_id(), parent=d2, name="new"),
        ]
        runner = cluster.run_ops(proc, ops)
        results = run_to_completion(cluster, runner)
        assert all(r.ok for r in results)
        cluster.quiesce_protocol()
        assert check_namespace_invariants(cluster, known_dirs=[d1, d2]) == []


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestRenameCrash:
    def test_destination_crash_drops_the_undo_image(self, protocol):
        """The undo image the destination keeps between RENAME-PREP and
        RENAME-DECIDE is volatile: a crash in that window must not carry
        it into the rebooted server."""
        cluster = build_cluster(protocol)
        d1 = cluster.preload_dir(ROOT_HANDLE, "a")
        d2 = cluster.preload_dir(ROOT_HANDLE, "b")
        h = cluster.preload_file(d1, "old")
        proc = cluster.client_process(0, 0)
        op = rename_op(cluster, proc, d1, "old", d2, "new", h)
        src = cluster.placement.dirent_server(d1, "old")
        dst = cluster.servers[cluster.placement.dirent_server(d2, "new")]
        assert dst.index != src  # cross-shard: PREP/DECIDE are messages
        cluster.run_ops(proc, [op])
        # Prepared; the DECIDE has not arrived yet.
        step_until(cluster, lambda: dst.role._rename_pending)
        assert list(dst.role._rename_pending) == [op.op_id]
        injector = FailureInjector(cluster)
        injector.crash_server(dst.index)
        assert dst.role._rename_pending == {}
        run_to_completion(cluster, injector.recover_server(dst.index), limit=600)
        assert dst.role._rename_pending == {}
