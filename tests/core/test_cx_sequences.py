"""Message-sequence validation of the paper's Figure 2.

Asserts the exact protocol choreography, not just outcomes: which
messages cross the wire, in which order, for the gracious execution
(Fig. 2a) and the disagreement (Fig. 2b) scenarios.
"""

from repro.cluster.builder import ROOT_HANDLE
from repro.fs.ops import FileOperation, OpType
from repro.net.message import MessageKind
from repro.params import SimParams
from tests.conftest import build_cluster, run_to_completion


def record_wire(cluster, trace):
    original = cluster.network.send

    def recorder(msg):
        trace.append((msg.kind, msg.src, msg.dst))
        return original(msg)

    cluster.network.send = recorder


def cross_create(cluster, proc, d):
    for i in range(128):
        name = f"s{i}"
        h = cluster.placement.allocate_handle()
        if cluster.placement.is_cross_server(d, name, h):
            return FileOperation(OpType.CREATE, proc.new_op_id(), parent=d,
                                 name=name, target=h)
    raise AssertionError("no cross-server name")


class TestGraciousSequence:
    """Fig. 2(a): concurrent REQs, two YES responses, lazy commitment."""

    def test_execution_phase_messages(self):
        cluster = build_cluster("cx", params=SimParams(commit_timeout=60.0))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_create(cluster, proc, d)
        trace = []
        record_wire(cluster, trace)
        runner = cluster.run_ops(proc, [op])
        (res,) = run_to_completion(cluster, runner)
        assert res.ok
        kinds = [k for k, _s, _d in trace]
        # Step 1: both sub-op requests leave the client back to back —
        # no server response interleaves (concurrent execution).
        assert kinds[:2] == [MessageKind.REQ, MessageKind.REQ]
        # Step 2: both servers answer YES; nothing else crossed the wire.
        assert kinds[2:] == [MessageKind.YES, MessageKind.YES]

    def test_commitment_phase_messages(self):
        cluster = build_cluster("cx", params=SimParams(commit_timeout=0.2))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_create(cluster, proc, d)
        runner = cluster.run_ops(proc, [op])
        run_to_completion(cluster, runner)
        trace = []
        record_wire(cluster, trace)
        cluster.sim.run(until=cluster.sim.now + 1.0)  # the trigger fires
        coord = cluster.server_id(cluster.placement.dirent_server(d, op.name))
        part = cluster.server_id(cluster.placement.inode_server(op.target))
        # Steps 3-7a: VOTE -> YES -> COMMIT-REQ -> ACK between the two
        # affected servers, in order.
        expected = [
            (MessageKind.VOTE, coord, part),
            (MessageKind.YES, part, coord),
            (MessageKind.COMMIT_REQ, coord, part),
            (MessageKind.ACK, part, coord),
        ]
        assert trace == expected


class TestDisagreementSequence:
    """Fig. 2(b): mixed votes -> L-COM -> immediate commitment -> ALL-NO."""

    def test_full_choreography(self):
        cluster = build_cluster("cx", params=SimParams(commit_timeout=60.0))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        # Occupy a name, then re-create it with a fresh inode.
        for i in range(128):
            name = f"m{i}"
            h1 = cluster.placement.allocate_handle()
            h2 = cluster.placement.allocate_handle()
            if (cluster.placement.is_cross_server(d, name, h1)
                    and cluster.placement.is_cross_server(d, name, h2)):
                break
        op1 = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d, name=name, target=h1)
        runner = cluster.run_ops(proc, [op1])
        run_to_completion(cluster, runner)
        cluster.quiesce_protocol()

        op2 = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d, name=name, target=h2)
        trace = []
        record_wire(cluster, trace)
        runner = cluster.run_ops(proc, [op2])
        (res,) = run_to_completion(cluster, runner)
        assert not res.ok and res.errno == "EEXIST"

        client = proc.node.node_id
        coord = cluster.server_id(cluster.placement.dirent_server(d, name))
        part = cluster.server_id(cluster.placement.inode_server(h2))
        kinds = [(k, s, r) for k, s, r in trace]
        # Execution: two concurrent REQs; coordinator NO, participant YES.
        assert kinds[0] == (MessageKind.REQ, client, coord)
        assert kinds[1] == (MessageKind.REQ, client, part)
        assert (MessageKind.NO, coord, client) in kinds[2:4]
        assert (MessageKind.YES, part, client) in kinds[2:4]
        # Disagreement: L-COM, the immediate commitment, then ALL-NO.
        assert kinds[4] == (MessageKind.L_COM, client, coord)
        assert kinds[5] == (MessageKind.VOTE, coord, part)
        assert kinds[6] == (MessageKind.YES, part, coord)
        assert kinds[7] == (MessageKind.COMMIT_REQ, coord, part)
        assert kinds[8] == (MessageKind.ACK, part, coord)
        assert kinds[9] == (MessageKind.ALL_NO, coord, client)
        assert len(kinds) == 10
