"""Handler drivers are not pooled: they must die by refcount.

Replays run with the cyclic collector paused (``kernel_sprint``), so a
driver that still references itself when its message completes — via
its bound resume callback or its completion-callback list — would
accumulate for the whole replay.  And a handler that fails must still
crash the run loudly instead of vanishing with its driver.
"""

import gc
import weakref

import pytest

import repro.cluster.server as server_mod
from repro.cluster.builder import ROOT_HANDLE
from repro.fs.ops import FileOperation, OpType
from repro.sim import SimulationError
from tests.conftest import build_cluster, make_create, run_to_completion


def test_finished_drivers_are_freed_without_the_cyclic_gc(monkeypatch):
    refs = []

    class Tracked(server_mod._HandlerSlot):
        __slots__ = ("__weakref__",)

        def __init__(self, server, msg):
            super().__init__(server, msg)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(server_mod, "_HandlerSlot", Tracked)
    cluster = build_cluster("cx", trace=False)
    d = cluster.preload_dir(ROOT_HANDLE, "dir")
    proc = cluster.client_process(0, 0)
    ops = [make_create(cluster, proc, d, f"f{i}") for i in range(20)]
    ops.append(FileOperation(OpType.READDIR, proc.new_op_id(), parent=d))
    gc.collect()
    gc.disable()
    try:
        run_to_completion(cluster, cluster.run_ops(proc, ops))
        cluster.quiesce_protocol()
        # Generator-driven handlers (REQ, COMMIT-REQ) and inline-served
        # ones (duplicate-free VOTEs, L-COM) both went through drivers.
        assert len(refs) > len(ops)
        alive = [r() for r in refs if r() is not None]
        assert not any(slot.processed for slot in alive)
        assert all(not s._handlers for s in cluster.servers)
        assert alive == []
    finally:
        gc.enable()


def test_failed_handler_surfaces_as_simulation_error():
    cluster = build_cluster("ofs", num_servers=1, trace=False)
    server = cluster.servers[0]

    def broken(msg):
        raise ValueError("handler bug")

    server.role.handle = broken
    proc = cluster.client_process(0, 0)
    d = cluster.preload_dir(ROOT_HANDLE, "dir")
    cluster.run_ops(proc, [make_create(cluster, proc, d, "x")])
    with pytest.raises(SimulationError, match="handler bug"):
        cluster.sim.run(until=cluster.sim.now + 1.0)
    assert not server._handlers  # the failed driver was untracked first
