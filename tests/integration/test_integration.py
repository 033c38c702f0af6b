"""Cross-module integration tests: protocol equivalence, atomicity
under failures (including SE's orphan weakness), replay sanity."""

import pytest

from repro.analysis.consistency import check_atomicity, check_namespace_invariants
from repro.cluster import FailureInjector
from repro.cluster.builder import ROOT_HANDLE
from repro.fs.objects import inode_key
from repro.fs.ops import FileOperation, OpType
from repro.net.message import MessageKind
from repro.params import SimParams
from repro.workloads import TRACE_SPECS, TraceWorkload, replay_streams
from tests.conftest import build_cluster, run_to_completion

ALL_PROTOCOLS = ["ofs", "ofs-batched", "2pc", "ce", "cx"]


class TestProtocolEquivalence:
    """All five protocols, fed the same operation history, must leave
    byte-identical namespaces."""

    def _final_namespace(self, protocol, seed=13):
        cluster = build_cluster(protocol, num_servers=4, seed=seed)
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        import random

        rng = random.Random(seed)
        handles = []
        ops = []
        for i in range(40):
            roll = rng.random()
            if roll < 0.5 or not handles:
                h = cluster.placement.allocate_handle()
                handles.append((f"f{i}", h))
                ops.append(FileOperation(OpType.CREATE, proc.new_op_id(),
                                         parent=d, name=f"f{i}", target=h))
            elif roll < 0.7:
                name, h = handles[rng.randrange(len(handles))]
                ops.append(FileOperation(OpType.LINK, proc.new_op_id(),
                                         parent=d, name=f"l{i}", target=h))
            elif roll < 0.9:
                name, h = handles.pop(rng.randrange(len(handles)))
                ops.append(FileOperation(OpType.REMOVE, proc.new_op_id(),
                                         parent=d, name=name, target=h))
            else:
                name, h = handles[rng.randrange(len(handles))]
                ops.append(FileOperation(OpType.STAT, proc.new_op_id(), target=h))
        runner = cluster.run_ops(proc, ops)
        results = run_to_completion(cluster, runner)
        cluster.quiesce_protocol()
        state = {}
        for server in cluster.servers:
            for key, val in server.kv.items():
                if key[0] == "d":
                    state[key] = val.target
                elif key[0] == "i":
                    state[key] = (val.ftype.value, val.nlink)
        return state, [r.ok for r in results]

    def test_all_protocols_agree(self):
        reference_state, reference_oks = self._final_namespace("ofs")
        for protocol in ALL_PROTOCOLS[1:]:
            state, oks = self._final_namespace(protocol)
            assert oks == reference_oks, protocol
            assert state == reference_state, protocol


class TestAtomicityUnderClientFailure:
    """The paper's SE critique: "if the client itself fails before
    sending the CLEAR message out, metadata across servers may be
    inconsistent, leaving orphan objects"."""

    def _doomed_cross_create(self, cluster, proc, d):
        """An op whose coordinator half fails (duplicate name) but whose
        participant half succeeds."""
        for i in range(128):
            name = f"n{i}"
            h1 = cluster.placement.allocate_handle()
            h2 = cluster.placement.allocate_handle()
            if (cluster.placement.is_cross_server(d, name, h1)
                    and cluster.placement.is_cross_server(d, name, h2)):
                return name, h1, h2
        raise AssertionError("no cross-server name")

    def test_se_client_crash_leaves_orphan(self):
        cluster = build_cluster("ofs")
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        name, h1, h2 = self._doomed_cross_create(cluster, proc, d)
        op1 = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d,
                            name=name, target=h1)
        runner = cluster.run_ops(proc, [op1])
        run_to_completion(cluster, runner)

        # Second create of the same name: participant succeeds, then the
        # client dies before it can CLEAR after the coordinator's EEXIST.
        op2 = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d,
                            name=name, target=h2)

        def doomed_client():
            node = proc.node
            resp_p = yield node.request(
                cluster.server_id(cluster.placement.inode_server(h2)),
                MessageKind.REQ,
                {"subop": cluster.plan(op2).part_subop},
            )
            assert resp_p.payload["ok"]
            node.crash()  # dies holding the participant's YES

        run_to_completion(cluster, cluster.sim.process(doomed_client()))
        cluster.sim.run(until=cluster.sim.now + 5.0)
        # Orphan inode: exists, but no entry references it.
        part = cluster.servers[cluster.placement.inode_server(h2)]
        assert part.kv.get(inode_key(h2)) is not None
        violations = check_namespace_invariants(cluster, known_dirs=[d])
        assert any(v.kind == "orphan-inode" for v in violations)

    def test_cx_client_crash_cleaned_by_lazy_abort(self):
        """Under Cx the servers own the commitment: the same client
        crash leaves no orphan once the lazy commitment aborts the
        disagreeing operation."""
        cluster = build_cluster("cx", params=SimParams(commit_timeout=0.2))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        name, h1, h2 = self._doomed_cross_create(cluster, proc, d)
        op1 = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d,
                            name=name, target=h1)
        runner = cluster.run_ops(proc, [op1])
        run_to_completion(cluster, runner)

        op2 = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d,
                            name=name, target=h2)
        plan = cluster.plan(op2)

        def doomed_client():
            node = proc.node
            node.send(cluster.server_id(plan.coordinator), MessageKind.REQ,
                      {"subop": plan.coord_subop, "op_id": op2.op_id,
                       "other_server": plan.participant})
            node.send(cluster.server_id(plan.participant), MessageKind.REQ,
                      {"subop": plan.part_subop, "op_id": op2.op_id,
                       "other_server": plan.coordinator})
            yield cluster.sim.timeout(1e-4)
            node.crash()

        run_to_completion(cluster, cluster.sim.process(doomed_client()))
        cluster.sim.run(until=cluster.sim.now + 2.0)  # lazy trigger fires
        part = cluster.servers[cluster.placement.inode_server(h2)]
        assert part.kv.get(inode_key(h2)) is None  # aborted, no orphan
        violations = check_namespace_invariants(cluster, known_dirs=[d])
        assert not any(v.kind == "orphan-inode" for v in violations)


class TestAtomicityUnderServerCrash:
    @pytest.mark.parametrize("crash_at", [0.004, 0.012, 0.03])
    def test_cx_crash_recover_preserves_atomicity(self, crash_at):
        cluster = build_cluster(
            "cx",
            params=SimParams(commit_timeout=0.05, client_retry_timeout=3.0),
        )
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        issued = []
        runners = []
        for c in range(2):
            proc = cluster.client_process(c, 0)
            ops = [FileOperation(OpType.CREATE, proc.new_op_id(), parent=d,
                                 name=f"c{c}-f{j}",
                                 target=cluster.placement.allocate_handle())
                   for j in range(10)]
            issued.extend(ops)
            runners.append(cluster.run_ops(proc, ops))
        injector = FailureInjector(cluster)
        injector.crash_server_at(1, at=crash_at)

        def recover():
            yield cluster.sim.timeout(crash_at + 0.05)
            yield injector.recover_server(1)

        rec = cluster.sim.process(recover())
        run_to_completion(cluster, rec, limit=600)
        results = []
        for r in runners:
            results.extend(run_to_completion(cluster, r, limit=600))
        cluster.quiesce_protocol()
        assert check_namespace_invariants(cluster, known_dirs=[d]) == []
        pairs = list(zip(issued, [r.ok for r in results]))
        # All-or-nothing per op: a reported-ok create has both halves,
        # a failed one has neither.
        assert check_atomicity(cluster, pairs) == []


class TestReplayAcrossProtocols:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_small_trace_replay_consistent(self, protocol):
        from repro import Cluster
        from repro.protocols import get_protocol

        cluster = Cluster.build(num_servers=4, num_clients=2,
                                protocol=get_protocol(protocol),
                                params=SimParams(commit_timeout=0.1),
                                procs_per_client=4, seed=2)
        wl = TraceWorkload(TRACE_SPECS["CTH"], scale=0.0008, seed=2)
        streams = wl.build(cluster, cluster.all_processes())
        res = replay_streams(cluster, streams)
        assert res.failed_ops == 0
        assert check_namespace_invariants(cluster, known_dirs=wl.known_dirs) == []
