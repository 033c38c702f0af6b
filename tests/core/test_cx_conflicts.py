"""Cx conflict handling: ordered (Fig. 3a), disordered (Fig. 3b),
blocked reads, same-process exemption."""

import pytest

from repro.cluster.builder import ROOT_HANDLE
from repro.fs.ops import FileOperation, OpType
from repro.net.message import MessageKind
from repro.params import SimParams
from tests.conftest import build_cluster, run_to_completion, step_until


def pick_cross_link(cluster, parent, name, handle):
    return cluster.placement.is_cross_server(parent, name, handle)


def setup_shared_file(cluster, parent):
    """A preloaded file whose links from two processes will conflict."""
    return cluster.preload_file(parent, "shared")


class TestSameProcessExemption:
    def test_own_pending_objects_do_not_conflict(self):
        """A process stats the file it just created: no conflict, no
        immediate commitment (paper §III.B's synchronous-process rule)."""
        cluster = build_cluster("cx", params=SimParams(commit_timeout=60.0))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        h = cluster.placement.allocate_handle()
        ops = [
            FileOperation(OpType.CREATE, proc.new_op_id(), parent=d, name="mine", target=h),
            FileOperation(OpType.STAT, proc.new_op_id(), target=h),
            FileOperation(OpType.LINK, proc.new_op_id(), parent=d, name="mine2", target=h),
        ]
        runner = cluster.run_ops(proc, ops)
        results = run_to_completion(cluster, runner)
        assert all(r.ok for r in results)
        assert not any(r.conflicted for r in results)
        assert cluster.network.stats.count(MessageKind.VOTE) == 0


class TestOrderedConflict:
    """Fig. 3(a): another process touches an active object; the access
    blocks, an immediate commitment runs, then the access proceeds."""

    def _run(self):
        cluster = build_cluster("cx", params=SimParams(commit_timeout=60.0))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        shared = setup_shared_file(cluster, d)
        pa = cluster.client_process(0, 0)
        pb = cluster.client_process(1, 0)
        # A links the shared file (cross-server, leaves it active);
        # B stats it while the link is pending -> conflict.
        for i in range(128):
            name = f"la{i}"
            if pick_cross_link(cluster, d, name, shared):
                break
        op_a = FileOperation(OpType.LINK, pa.new_op_id(), parent=d, name=name, target=shared)
        op_b = FileOperation(OpType.STAT, pb.new_op_id(), target=shared)
        ra = cluster.run_ops(pa, [op_a])

        def delayed_b():
            yield cluster.sim.timeout(0.002)  # after A executed, before commit
            res = yield from pb.perform(op_b)
            return res

        rb = cluster.sim.process(delayed_b())
        run_to_completion(cluster, ra)
        res_b = run_to_completion(cluster, rb)
        return cluster, op_a, res_b

    def test_read_blocks_and_conflicts(self):
        cluster, op_a, res_b = self._run()
        assert res_b.ok
        assert res_b.conflicted

    def test_immediate_commitment_launched(self):
        cluster, op_a, _res_b = self._run()
        immediate = sum(
            s.metrics.counter("commit.immediate_ops").value
            for s in cluster.servers
        )
        assert immediate >= 1
        # A is committed well before the 60 s timer could have fired.
        assert cluster.sim.now < 1.0
        for s in cluster.servers:
            if op_a.op_id in s.role.completed:
                assert s.role.completed[op_a.op_id]["committed"]
                break
        else:
            pytest.fail("op A never committed")

    def test_read_sees_committed_value(self):
        _cluster, op_a, res_b = self._run()
        # The stat observed the post-link inode (nlink = 2).
        assert res_b.value.nlink == 2


class TestDisorderedConflict:
    """Fig. 3(b): the two servers saw A and B in opposite orders; the
    participant must invalidate B's execution, run A first, and let B's
    re-execution supersede its earlier response."""

    def _run(self):
        cluster = build_cluster("cx", params=SimParams(commit_timeout=60.0))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        shared = setup_shared_file(cluster, d)
        # A and B: two links of the SAME name to the SAME inode — they
        # share both the coordinator (dirent hash) and the participant.
        for i in range(128):
            name = f"x{i}"
            if pick_cross_link(cluster, d, name, shared):
                break
        pa = cluster.client_process(0, 0)
        pb = cluster.client_process(1, 0)
        op_a = FileOperation(OpType.LINK, pa.new_op_id(), parent=d, name=name, target=shared)
        op_b = FileOperation(OpType.LINK, pb.new_op_id(), parent=d, name=name, target=shared)

        coord = cluster.placement.dirent_server(d, name)
        part = cluster.placement.inode_server(shared)
        part_node = cluster.server_id(part)

        # Shim the network: A's request to the participant is delayed, so
        # the participant sees B first (disorder) while the coordinator
        # sees A first.
        net = cluster.network
        orig_delay = net.delay_for

        def delay_for(msg):
            base = orig_delay(msg)
            if (msg.kind is MessageKind.REQ
                    and msg.payload.get("op_id") == op_a.op_id
                    and msg.dst == part_node):
                return base + 0.003
            return base

        net.delay_for = delay_for

        ra = cluster.run_ops(pa, [op_a])

        def delayed_b():
            yield cluster.sim.timeout(0.001)  # B starts after A
            res = yield from pb.perform(op_b)
            return res

        rb = cluster.sim.process(delayed_b())
        res_a = run_to_completion(cluster, ra)[0]
        res_b = run_to_completion(cluster, rb)
        return cluster, (op_a, res_a), (op_b, res_b), coord, part

    def test_invalidation_happened(self):
        cluster, _a, _b, _coord, part = self._run()
        assert cluster.servers[part].metrics.counter(
            "disorder.invalidations").value == 1

    def test_coordinator_order_wins(self):
        """A (first at the coordinator) commits; B aborts with EEXIST."""
        cluster, (op_a, res_a), (op_b, res_b), coord, part = self._run()
        assert res_a.ok
        assert not res_b.ok
        assert res_b.errno == "EEXIST"

    def test_b_saw_conflict_and_terminated(self):
        _cluster, _a, (op_b, res_b), _coord, _part = self._run()
        assert res_b.conflicted

    def test_final_state_consistent(self):
        from repro.analysis.consistency import check_namespace_invariants
        from repro.fs.objects import inode_key

        cluster, (op_a, _ra), (_op_b, _rb), _coord, part = self._run()
        cluster.quiesce_protocol()
        # Exactly one link went through: nlink == 2.
        inode = cluster.servers[part].kv.get(inode_key(op_a.target))
        assert inode.nlink == 2
        assert check_namespace_invariants(cluster) == []

    def test_invalidated_result_record_ignored(self):
        """The invalidated Result-Record must not resurface in the log
        index as a valid record."""
        cluster, _a, (op_b, _rb), _coord, part = self._run()
        wal = cluster.servers[part].wal
        # B's records were pruned after its abort; nothing valid remains.
        assert all(r.invalid or r.rtype != "RESULT"
                   for r in wal.records_of(op_b.op_id))


class TestConflictCascade:
    def test_three_processes_on_one_file_all_terminate(self):
        cluster = build_cluster("cx", num_clients=3,
                                params=SimParams(commit_timeout=60.0))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        shared = setup_shared_file(cluster, d)
        runners = []
        for c in range(3):
            proc = cluster.client_process(c, 0)
            ops = [FileOperation(OpType.LINK, proc.new_op_id(), parent=d,
                                 name=f"c{c}-l{i}", target=shared)
                   for i in range(5)]
            runners.append(cluster.run_ops(proc, ops))
        all_results = [run_to_completion(cluster, r) for r in runners]
        assert all(r.ok for rs in all_results for r in rs)
        cluster.quiesce_protocol()
        from repro.analysis.consistency import check_namespace_invariants
        from repro.fs.objects import inode_key

        inode = cluster.servers[cluster.placement.inode_server(shared)].kv.get(
            inode_key(shared))
        assert inode.nlink == 16  # 1 + 15 links
        assert check_namespace_invariants(cluster) == []


def _assert_nothing_orphaned(cluster):
    """No decision went to an op its server no longer held, and no
    pending entry was left for nobody to decide."""
    assert sum(
        s.metrics.counter("commit.decisions_unknown").value
        for s in cluster.servers
    ) == 0
    assert [len(s.role.pending) for s in cluster.servers] == [0] * len(
        cluster.servers
    )


class TestVoteOrderedOpIsNotInvalidated:
    """An op executed because a VOTE ordered it must survive a second
    VOTE that finds it holding, even while its Result-Record is still in
    flight: undoing it orphans the first vote's cast, and the decision
    that follows lands on nothing."""

    @pytest.mark.parametrize("path", ["inline", "req"])
    def test_second_vote_in_the_unlogged_window(self, path):
        """Fig. 3(b) with a third party.  B holds the inode at the
        participant, A and Y queue behind it, A's VOTE displaces B —
        executing A inline from ``_materialize`` (``inline``: A's REQ
        was blocked first) or from ``_handle_req`` (``req``: the VOTE
        was waiting first).  Y's VOTE then arrives while A is pending
        but not yet logged."""
        cluster = build_cluster(
            "cx", num_clients=3, params=SimParams(commit_timeout=60.0)
        )
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        shared = setup_shared_file(cluster, d)
        name, yname = [
            n for n in (f"x{i}" for i in range(128))
            if pick_cross_link(cluster, d, n, shared)
        ][:2]
        pa, pb, pc = (cluster.client_process(c, 0) for c in range(3))
        op_a, op_b, op_y = (
            FileOperation(OpType.LINK, p.new_op_id(), parent=d, name=n, target=shared)
            for p, n in ((pa, name), (pb, name), (pc, yname))
        )
        part = cluster.servers[cluster.placement.inode_server(shared)]
        #: Plays Y's coordinator for the one VOTE that matters.
        fake = cluster.clients[2]
        net = cluster.network
        orig_delay = net.delay_for

        def delay_for(msg):
            base = orig_delay(msg)
            if msg.dst != part.node_id:
                return base
            if (msg.kind is MessageKind.REQ
                    and msg.payload.get("op_id") == op_a.op_id):
                # After B (and Y) reached the participant.
                return base + (0.0015 if path == "inline" else 0.003)
            if msg.kind is MessageKind.VOTE:
                if msg.src == fake.node_id:
                    return 1e-6
                if path == "inline" and op_a.op_id in msg.payload["ops"]:
                    return base + 0.002  # after A's REQ was blocked
            return base

        net.delay_for = delay_for
        sim = cluster.sim

        def later(proc, op, at):
            def body():
                yield sim.timeout(at)
                return (yield from proc.perform(op))
            return sim.process(body())

        ra = cluster.run_ops(pa, [op_a])
        rb = later(pb, op_b, 0.001)
        ry = later(pc, op_y, 0.0013)
        role = part.role
        step_until(cluster, lambda: op_a.op_id in role.pending)
        # The window: A displaced B, is pending, unlogged, and holds Y.
        assert part.metrics.counter("disorder.invalidations").value == 1
        assert not role.pending[op_a.op_id].logged
        assert role.active.find_blocked(op_y.op_id) is not None
        vote = fake.request(part.node_id, MessageKind.VOTE, {"ops": [op_y.op_id]})

        res_a = run_to_completion(cluster, ra)[0]
        res_b = run_to_completion(cluster, rb)
        res_y = run_to_completion(cluster, ry)
        cluster.quiesce_protocol()
        assert res_a.ok and res_y.ok
        assert not res_b.ok and res_b.errno == "EEXIST"
        # Y's vote waited for A's commitment instead of undoing A.
        assert part.metrics.counter("disorder.invalidations").value == 1
        assert vote.value.payload["votes"][op_y.op_id]["ok"]
        _assert_nothing_orphaned(cluster)
        from repro.analysis.consistency import check_namespace_invariants
        from repro.fs.objects import inode_key

        assert part.kv.get(inode_key(shared)).nlink == 3
        assert check_namespace_invariants(cluster) == []

    def test_fig9b_threshold_64_cell_completes(self):
        """The Figure 9(b) cell that used to deadlock (home2, threshold
        trigger only, unlimited log): invalidations happen, every
        decision finds its op, nothing is left pending."""
        from repro.experiments.common import (
            TRACE_SCALES, build_trace_cluster, experiment_params,
        )
        from repro.workloads import TRACE_SPECS, TraceWorkload, replay_streams

        params = experiment_params(
            commit_timeout=None, commit_threshold=64, log_capacity=None
        )
        cluster = build_trace_cluster("cx", params=params, seed=0)
        wl = TraceWorkload(
            TRACE_SPECS["home2"], scale=TRACE_SCALES["home2"], seed=0
        )
        replay_streams(cluster, wl.build(cluster, cluster.all_processes()))
        cluster.quiesce_protocol()
        assert sum(
            s.metrics.counter("disorder.invalidations").value
            for s in cluster.servers
        ) >= 1
        _assert_nothing_orphaned(cluster)
