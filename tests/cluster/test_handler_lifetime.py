"""Handler drivers are not pooled: they must die by refcount.

Replays run with the cyclic collector paused (``kernel_sprint``), so a
driver that still references itself when its message completes — via
its bound resume callback or its completion-callback list — would
accumulate for the whole replay.  And a handler that fails must still
crash the run loudly instead of vanishing with its driver.

The other end of a driver's life is a crash: the server kills every
activity it owns, synchronously, and none of them ever runs again.
"""

import gc
import weakref

import pytest

import repro.cluster.server as server_mod
from repro.analysis.consistency import check_namespace_invariants, is_transient
from repro.cluster import FailureInjector
from repro.cluster.builder import ROOT_HANDLE
from repro.fs.ops import FileOperation, OpType
from repro.sim import SimulationError
from tests.conftest import build_cluster, make_create, run_to_completion, step_until


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
        assert all(not s._owned for s in cluster.servers)
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
    assert not server._owned  # the failed driver was untracked first


# -- crash teardown by ownership ----------------------------------------------

#: Acknowledge before write-back and have no recovery pass (only Cx
#: recovers from its log), so a crash legitimately loses acknowledged
#: objects: for these the namespace is not asserted, only that teardown,
#: reboot and quiesce run clean.
LOSSY_BASELINES = {"2pc", "ofs-batched"}


def _watched(gen, server, resumed_after_crash):
    """Drive ``gen`` transparently, noting any resumption that happens
    after a crash of the server that owned it at birth."""
    born = server.crashes
    step, arg = gen.send, None
    try:
        while True:
            try:
                target = step(arg)
            except StopIteration as stop:
                return stop.value
            try:
                arg = yield target
                step = gen.send
            except GeneratorExit:
                raise
            except BaseException as exc:  # a failed wait: forward it
                step, arg = gen.throw, exc
            if server.crashes != born:
                resumed_after_crash.append(gen)
    finally:
        gen.close()


def _instrument(server, resumed_after_crash, teardowns):
    """Route everything ``server`` runs through :func:`_watched` and
    check the owned set at the instant ``crash()`` returns: one
    ``(activities killed, all torn down)`` pair per crash."""
    server.crashes = 0
    spawn, crash, role = server.spawn, server.crash, server.role

    def wrap(make):
        def made(msg):
            gen = make(msg)
            if gen is None:
                return None
            return _watched(gen, server, resumed_after_crash)
        return made

    role.handle = wrap(role.handle)
    role.handle_rename = wrap(role.handle_rename)
    server.spawn = lambda gen: spawn(_watched(gen, server, resumed_after_crash))

    def crash_and_check():
        owned = list(server._owned)
        crash()
        teardowns.append(
            (len(owned), not server._owned and all(p.triggered for p in owned))
        )
        server.crashes += 1

    server.crash = crash_and_check


def _crash_scenario(protocol):
    """Four processes creating files in one directory (a mix of single-
    and cross-server operations)."""
    cluster = build_cluster(protocol, trace=False)
    d = cluster.preload_dir(ROOT_HANDLE, "dir")
    issued, acked, runners = set(), set(), []

    def body(proc, ops):
        # No ConnectionError reaches a client: it resends until answered,
        # and an op a crashed server cannot vouch for stays unanswered.
        for op in ops:
            yield from proc.perform(op)
            acked.add(op.target)

    for c in range(2):
        for p in range(2):
            proc = cluster.client_process(c, p)
            ops = [make_create(cluster, proc, d, f"f{c}{p}{i}") for i in range(6)]
            issued.update(op.target for op in ops)
            runners.append(cluster.sim.process(body(proc, ops)))
    return cluster, d, runners, issued, acked


@pytest.mark.parametrize("protocol", ["cx", "2pc", "ofs", "ofs-batched", "ce"])
def test_crash_kills_everything_the_server_owns(protocol):
    """Crash one server at 20 event indices spread over the replay.

    (a) when ``crash()`` returns the owned set is empty and everything
    that was in it has completed; (b) no generator the server started
    before the crash — handler or spawned — is ever resumed after it;
    (c) reboot, recovery and quiesce run clean and leave a namespace
    whose only breaks belong to operations no client saw complete."""
    cluster, _d, runners, _issued, _acked = _crash_scenario(protocol)
    cluster.sim.run_until(cluster.sim.all_of(runners))
    total = cluster.sim.events_processed
    samples = [1 + (total - 2) * k // 19 for k in range(20)]
    # Replays are deterministic: a dry run tells which server is the
    # busiest at each sampled index, and that one is crashed there.
    cluster, *_ = _crash_scenario(protocol)
    busiest = []
    for at in samples:
        step_until(cluster, lambda: cluster.sim.events_processed >= at)
        busiest.append(max(cluster.servers, key=lambda s: len(s._owned)).index)
    killed = []
    for at, index in zip(samples, busiest):
        cluster, d, runners, issued, acked = _crash_scenario(protocol)
        victim = cluster.servers[index]
        resumed_after_crash, teardowns = [], []
        _instrument(victim, resumed_after_crash, teardowns)
        injector = FailureInjector(cluster)
        injector.crash_server_at_event(victim.index, at)
        step_until(cluster, lambda: victim.crashed, limit=10)
        assert [ok for _n, ok in teardowns] == [True], (protocol, at)
        killed.append(teardowns[0][0])
        report = injector.recover_server(victim.index)
        run_to_completion(cluster, report, limit=600)
        cluster.quiesce_protocol()
        assert resumed_after_crash == [], (protocol, at)
        if protocol not in LOSSY_BASELINES:
            breaks = check_namespace_invariants(
                cluster, known_dirs=[d], transient_targets=issued - acked
            )
            assert [v for v in breaks if not is_transient(v)] == [], (protocol, at)
    # The sample is not vacuous: crashes caught live activities.
    assert sum(1 for n in killed if n) >= 10, killed
