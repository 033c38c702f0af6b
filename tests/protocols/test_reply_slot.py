"""The per-process reply slot: every client request runs at most once.

A process has one op in flight, so one slot per (client, process) on
each server holds the newest (op id, round) and its reply.  A resend is
answered from the slot or dropped while its handler runs, an older
request is dropped, a handler that dies without replying before it
decided frees the slot, a decided op never runs again (its decision is
re-sent until it arrives), and a request a crash may have run unseen
stays unanswered.
"""

import pytest

from repro.analysis.consistency import check_namespace_invariants
from repro.cluster import FailureInjector
from repro.cluster.builder import ROOT_HANDLE
from repro.fs.objects import dirent_key, inode_key
from repro.fs.ops import FileOperation, OpType
from repro.net.message import MessageKind
from repro.protocols.base import ServerRole
from tests.conftest import build_cluster, run_to_completion, step_until

#: Arrives with the original (its handler is still running), or long
#: after the op completed (its reply is in the slot).
DUP_EXTRA = [0.0, 0.05]


def _cross_target(cluster, parent, name):
    """A fresh handle whose create of ``parent/name`` spans two servers."""
    while True:
        h = cluster.placement.allocate_handle()
        if cluster.placement.is_cross_server(parent, name, h):
            return h


def _count_executions(cluster):
    """op id -> number of sub-op executions, over every server's shard."""
    counts = {}
    for server in cluster.servers:
        execute = server.shard.execute

        def counted(subop, now, execute=execute):
            counts[subop.op_id] = counts.get(subop.op_id, 0) + 1
            return execute(subop, now)

        server.shard.execute = counted
    return counts


def _hook(cluster):
    """Message-fault hook with a log: ``rules`` maps a predicate on the
    message to the action for its first match."""
    sent, rules = [], {}

    def hook(msg):
        sent.append(msg)
        for match in list(rules):
            if match(msg):
                return rules.pop(match)
        return None

    cluster.network.fault_hook = hook
    return sent, rules


def _is_first_req(msg):
    return msg.kind is MessageKind.REQ and msg.src.startswith("client")


@pytest.mark.parametrize("extra", DUP_EXTRA)
@pytest.mark.parametrize("protocol", ["ofs", "2pc", "ce"])
def test_duplicated_request_executes_once(protocol, extra):
    cluster = build_cluster(protocol)
    d = cluster.preload_dir(ROOT_HANDLE, "d")
    proc = cluster.client_process(0, 0)
    op = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d, name="x",
                       target=_cross_target(cluster, d, "x"))
    counts = _count_executions(cluster)
    sent, rules = _hook(cluster)
    rules[_is_first_req] = ("dup", extra)
    [result] = run_to_completion(cluster, cluster.run_ops(proc, [op]))
    cluster.sim.run(until=cluster.sim.now + 1.0)

    assert result.ok, result
    # One execution per server the op touches (CE runs the participant's
    # sub-op on the coordinator, against migrated objects).
    assert counts[op.op_id] == (1 if protocol == "ce" else 2)
    replies = [m for m in sent if m.dst == "client0"]
    # A late copy is answered again from the slot; an early one dropped.
    assert len(replies) == (1 if protocol != "ofs" else 2) + (extra > 0)
    assert check_namespace_invariants(cluster, known_dirs=[d]) == []
    dirent_server = cluster.servers[cluster.placement.dirent_server(d, "x")]
    assert dirent_server.kv.get(dirent_key(d, "x")).target == op.target


def _cross_rename(cluster, proc):
    """A rename of a preloaded file between two servers' directories."""
    d1 = cluster.preload_dir(ROOT_HANDLE, "a")
    d2 = cluster.preload_dir(ROOT_HANDLE, "b")
    for i in range(256):
        old, new = f"old{i}", f"new{i}"
        if (cluster.placement.dirent_server(d1, old)
                != cluster.placement.dirent_server(d2, new)):
            break
    h = cluster.preload_file(d1, old)
    op = FileOperation(OpType.RENAME, proc.new_op_id(), parent=d1, name=old,
                       target=h, new_parent=d2, new_name=new)
    assert cluster.plan(op).cross_server
    return op


def _assert_renamed(cluster, op):
    src = cluster.servers[cluster.placement.dirent_server(op.parent, op.name)]
    dst = cluster.servers[cluster.placement.dirent_server(op.new_parent,
                                                          op.new_name)]
    assert src.kv.get(dirent_key(op.parent, op.name)) is None
    assert dst.kv.get(dirent_key(op.new_parent, op.new_name)).target == op.target


@pytest.mark.parametrize("extra", DUP_EXTRA)
def test_duplicated_rename_executes_once_under_cx(extra):
    cluster = build_cluster("cx")
    proc = cluster.client_process(0, 0)
    op = _cross_rename(cluster, proc)
    counts = _count_executions(cluster)
    _sent, rules = _hook(cluster)
    rules[_is_first_req] = ("dup", extra)
    [result] = run_to_completion(cluster, cluster.run_ops(proc, [op]))
    cluster.quiesce_protocol(timeout=1.0)

    assert result.ok, result
    assert counts[op.op_id] == 2  # the removal and the insert, once each
    _assert_renamed(cluster, op)


def test_request_delayed_past_its_clear_is_dropped():
    """SE: the participant creates the inode, the coordinator finds the
    name taken, the client CLEARs the inode — and a copy of the first
    REQ arriving after the CLEAR must not create it again."""
    cluster = build_cluster("ofs")
    d = cluster.preload_dir(ROOT_HANDLE, "d")
    proc = cluster.client_process(0, 0)
    first = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d,
                          name="x", target=cluster.placement.allocate_handle())
    run_to_completion(cluster, cluster.run_ops(proc, [first]))
    h = _cross_target(cluster, d, "x")
    op = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d, name="x",
                       target=h)
    sent, rules = _hook(cluster)
    rules[_is_first_req] = ("dup", 0.05)
    [result] = run_to_completion(cluster, cluster.run_ops(proc, [op]))
    assert not result.ok and result.errno == "EEXIST"
    clear = [m for m in sent if m.kind is MessageKind.CLEAR]
    assert len(clear) == 1
    cluster.sim.run(until=cluster.sim.now + 1.0)  # the late copy lands

    part = cluster.servers[cluster.placement.inode_server(h)]
    assert part.kv.get(inode_key(h)) is None
    assert check_namespace_invariants(cluster, known_dirs=[d]) == []
    # Dropped, not answered: the participant's only RESPs are the REQ's
    # and the CLEAR's.
    assert len([m for m in sent if m.src == part.node_id
                and m.kind is MessageKind.RESP]) == 2


@pytest.mark.parametrize("protocol,peer_kind", [
    ("2pc", MessageKind.VOTE), ("ce", MessageKind.MIGRATE),
])
def test_handler_killed_by_a_peer_frees_the_slot(protocol, peer_kind):
    """The coordinator's request to its peer is lost: the handler ends
    with ConnectionError and no reply, and the client's resend runs the
    op afresh instead of being dropped for ever."""
    cluster = build_cluster(protocol)
    d = cluster.preload_dir(ROOT_HANDLE, "d")
    proc = cluster.client_process(0, 0)
    op = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d, name="x",
                       target=_cross_target(cluster, d, "x"))
    sent, rules = _hook(cluster)
    rules[lambda msg: msg.kind is peer_kind] = ("drop",)
    [result] = run_to_completion(cluster, cluster.run_ops(proc, [op]))

    assert result.ok, result
    retry = cluster.params.client_retry_timeout
    assert cluster.sim.now > retry  # answered by the resend
    assert [m.kind for m in sent].count(peer_kind) == 2
    assert check_namespace_invariants(cluster, known_dirs=[d]) == []


DECISIONS = [
    ("2pc", OpType.CREATE, MessageKind.COMMIT_REQ),
    ("2pc", OpType.CREATE, MessageKind.ABORT_REQ),
    ("ce", OpType.CREATE, MessageKind.MIGRATE_BACK),
    ("cx", OpType.RENAME, MessageKind.RENAME_DECIDE),
    ("ofs", OpType.RENAME, MessageKind.RENAME_DECIDE),
    ("2pc", OpType.RENAME, MessageKind.RENAME_DECIDE),
]


def _decided_op(cluster, proc, optype, kind):
    """The op whose coordinator sends ``kind``, and its directory."""
    if optype is OpType.RENAME:
        op = _cross_rename(cluster, proc)
        return op, [op.parent, op.new_parent]
    d = cluster.preload_dir(ROOT_HANDLE, "d")
    if kind is MessageKind.ABORT_REQ:  # the name is taken: 2PC aborts
        cluster.preload_file(d, "x")
    op = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d, name="x",
                       target=_cross_target(cluster, d, "x"))
    return op, [d]


def _assert_outcome(cluster, op, result, kind, dirs):
    if kind is MessageKind.ABORT_REQ:
        assert not result.ok and result.errno == "EEXIST"
    else:
        assert result.ok, result
    assert check_namespace_invariants(cluster, known_dirs=dirs) == []
    if op.op_type is OpType.RENAME:
        _assert_renamed(cluster, op)


@pytest.mark.parametrize("protocol,optype,kind", DECISIONS)
def test_lost_decision_is_sent_again(protocol, optype, kind):
    """The coordinator has logged its decision (and, to commit, written
    its half) when the message carrying it is lost: it sends the
    decision again instead of dying, and the op runs exactly once —
    the client is never told EEXIST/ENOENT for its own op."""
    cluster = build_cluster(protocol)
    proc = cluster.client_process(0, 0)
    op, dirs = _decided_op(cluster, proc, optype, kind)
    counts = _count_executions(cluster)
    sent, rules = _hook(cluster)
    rules[lambda msg: msg.kind is kind] = ("drop",)
    [result] = run_to_completion(cluster, cluster.run_ops(proc, [op]))
    cluster.quiesce_protocol(timeout=1.0)

    _assert_outcome(cluster, op, result, kind, dirs)
    assert [m.kind for m in sent].count(kind) == 2
    assert counts[op.op_id] == (1 if protocol == "ce" else 2)
    assert cluster.sim.now > cluster.params.commit_rpc_timeout


@pytest.mark.parametrize("protocol,optype,kind",
                         [d for d in DECISIONS if d[2] is not MessageKind.ABORT_REQ])
def test_decided_op_is_never_run_again(protocol, optype, kind, monkeypatch):
    """A handler that dies after it decided to commit keeps the slot:
    every resend is dropped and the op stalls, rather than running a
    second time against its own writes."""
    cluster = build_cluster(protocol)
    proc = cluster.client_process(0, 0)
    op, _dirs = _decided_op(cluster, proc, optype, kind)
    counts = _count_executions(cluster)

    def dies(self, dst, kind, payload, **kw):
        raise ConnectionError(f"{dst} is down")
        yield  # pragma: no cover - a generator that fails at once

    monkeypatch.setattr(ServerRole, "deliver_decision", dies)
    sent, _rules = _hook(cluster)
    runner = cluster.run_ops(proc, [op])
    cluster.sim.run(until=3.5 * cluster.params.client_retry_timeout)

    assert not runner.processed
    resends = [m for m in sent if m.src == "client0"]
    assert len(resends) == 4  # the first send and three resends
    assert not [m for m in sent if m.dst == "client0"]
    assert counts[op.op_id] == (1 if protocol == "ce" else 2)


def test_request_a_crash_may_have_run_stays_unanswered():
    """The server crashes with the REQ in its handler: it cannot tell
    whether the create ran, so the resend gets no answer rather than a
    wrong EEXIST; a request first sent after the crash is served."""
    cluster = build_cluster("ofs", num_clients=1, procs_per_client=2)
    d = cluster.preload_dir(ROOT_HANDLE, "d")
    proc, other = cluster.all_processes()
    h = cluster.placement.allocate_handle()
    while cluster.placement.is_cross_server(d, "x", h):
        h = cluster.placement.allocate_handle()
    op = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d, name="x",
                       target=h)
    server = cluster.servers[cluster.placement.dirent_server(d, "x")]
    runner = cluster.run_ops(proc, [op])
    step_until(cluster, lambda: any(
        getattr(p, "msg", None) is not None for p in server._owned))
    injector = FailureInjector(cluster)
    injector.crash_server(server.index)
    run_to_completion(cluster, injector.recover_server(server.index))
    cluster.sim.run(until=cluster.sim.now + 3.5)  # three resends

    assert not runner.processed
    assert server.metrics.counter("requests.forgotten").value == 3
    later = FileOperation(OpType.CREATE, other.new_op_id(), parent=d,
                          name="y", target=cluster.placement.allocate_handle())
    [result] = run_to_completion(cluster, cluster.run_ops(other, [later]))
    assert result.ok
