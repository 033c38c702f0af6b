"""Unit tests for the cluster runtime: servers, clients, builder,
failure injection."""

import pytest

from repro import Cluster, SimParams
from repro.cluster import FailureInjector
from repro.cluster.builder import ROOT_HANDLE
from repro.fs.objects import dirent_key, inode_key
from repro.fs.ops import FileOperation, OpType
from repro.protocols import get_protocol
from tests.conftest import build_cluster, run_to_completion


class TestBuilder:
    def test_build_wires_everything(self):
        cluster = build_cluster("cx", num_servers=3, num_clients=2)
        assert len(cluster.servers) == 3
        assert len(cluster.clients) == 2
        assert cluster.params.num_servers == 3
        for s in cluster.servers:
            assert s.role is not None
            assert s.disk is not None and s.kv is not None and s.wal is not None

    def test_rejects_non_protocol(self):
        from repro.sim import Simulator

        with pytest.raises(TypeError):
            Cluster(Simulator(), SimParams(), object(), 2, 1)

    def test_client_processes_cached(self):
        cluster = build_cluster("ofs")
        assert cluster.client_process(0, 0) is cluster.client_process(0, 0)

    def test_all_processes_count(self):
        cluster = build_cluster("ofs", num_clients=3, procs_per_client=4)
        assert len(cluster.all_processes()) == 12

    def test_unknown_protocol_name(self):
        with pytest.raises(ValueError):
            get_protocol("nonsense")

    def test_protocol_registry_complete(self):
        from repro.protocols import PROTOCOL_NAMES

        for name in PROTOCOL_NAMES:
            assert get_protocol(name).name == name


class TestPreload:
    def test_preload_dir_and_file_visible(self):
        cluster = build_cluster("ofs")
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        h = cluster.preload_file(d, "file")
        dserver = cluster.servers[cluster.placement.dirent_server(d, "file")]
        iserver = cluster.servers[cluster.placement.inode_server(h)]
        assert dserver.kv.get(dirent_key(d, "file")).target == h
        assert iserver.kv.get(inode_key(h)).handle == h

    def test_preload_on_specific_server(self):
        cluster = build_cluster("ofs", num_servers=4)
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        h = cluster.preload_file(d, "f", server=2)
        assert cluster.placement.inode_server(h) == 2

    def test_preload_files_bulk(self):
        cluster = build_cluster("ofs")
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        handles = cluster.preload_files(d, [f"f{i}" for i in range(10)])
        assert len(set(handles)) == 10


class TestOpIds:
    def test_op_ids_are_paper_triples(self):
        cluster = build_cluster("ofs", num_clients=2, procs_per_client=2)
        p = cluster.client_process(1, 1)
        assert p.new_op_id() == (1, 1, 1)
        assert p.new_op_id() == (1, 1, 2)
        q = cluster.client_process(0, 1)
        assert q.new_op_id() == (0, 1, 1)


class TestServerRuntime:
    def test_dispatch_concurrent_handlers(self):
        """A handler blocked on disk must not stall other requests."""
        cluster = build_cluster("ofs", num_servers=1)
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        h = cluster.preload_file(d, "x")
        p1 = cluster.client_process(0, 0)
        p2 = cluster.client_process(0, 1)
        slow = FileOperation(OpType.CREATE, p1.new_op_id(), parent=d, name="slow",
                             target=cluster.placement.allocate_handle())
        fast = FileOperation(OpType.STAT, p2.new_op_id(), target=h)
        r1 = cluster.run_ops(p1, [slow])
        r2 = cluster.run_ops(p2, [fast])
        run_to_completion(cluster, r1)
        run_to_completion(cluster, r2)
        lat = {rec.op_type: rec.latency for rec in cluster.metrics.ops}
        assert lat[OpType.STAT] < lat[OpType.CREATE]

    def test_quiesce_buffers_client_requests(self):
        cluster = build_cluster("ofs")
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        server = cluster.servers[0]
        server.quiesce()
        proc = cluster.client_process(0, 0)
        h = cluster.preload_file(d, "y", server=0)
        op = FileOperation(OpType.STAT, proc.new_op_id(), target=h)
        runner = cluster.run_ops(proc, [op])
        cluster.sim.run(until=cluster.sim.now + 0.5)
        assert not runner.triggered  # buffered
        server.unquiesce()
        (res,) = run_to_completion(cluster, runner)
        assert res.ok


class TestFailureInjection:
    def test_crash_loses_volatile_keeps_durable(self):
        cluster = build_cluster("cx")
        cluster.preload_dir(ROOT_HANDLE, "dir")
        server = cluster.servers[0]
        server.kv.put_sync("durable", 1)
        cluster.sim.run(until=cluster.sim.now + 0.1)
        server.kv.put_deferred("volatile", 2)
        injector = FailureInjector(cluster)
        injector.crash_server(0)
        assert server.crashed
        assert server.kv.get("durable") == 1
        assert server.kv.get("volatile") is None

    def test_crash_at_schedules_in_future(self):
        cluster = build_cluster("cx")
        injector = FailureInjector(cluster)
        injector.crash_server_at(1, at=0.5)
        cluster.sim.run(until=0.4)
        assert not cluster.servers[1].crashed
        cluster.sim.run(until=0.6)
        assert cluster.servers[1].crashed

    def test_crash_client_silences_it(self):
        cluster = build_cluster("cx")
        injector = FailureInjector(cluster)
        injector.crash_client(0)
        assert cluster.clients[0].crashed

    def test_reboot_restarts_main_loop(self):
        cluster = build_cluster("cx")
        server = cluster.servers[0]
        injector = FailureInjector(cluster)
        injector.crash_server(0)
        server.reboot()
        assert not server.crashed
        assert server._loop is not None and server._loop.is_alive
