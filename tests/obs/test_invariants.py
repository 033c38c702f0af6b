"""Invariant-checker tests: synthetic violation streams and real runs.

Every forged stream is recorded twice, as a full trace and as the
fuzzer's oracle trace (cut to :attr:`InvariantChecker.READS`); both
must give the same violation strings.
"""

from repro.cluster.builder import ROOT_HANDLE
from repro.obs import (
    PHASE_COMMIT,
    PHASE_EXEC,
    PHASE_RECORD,
    InvariantChecker,
    Tracer,
    check_trace,
)
from repro.obs.invariants import OracleTracer
from tests.conftest import build_cluster, run_to_completion
from tests.core.test_cx_basic import cross_server_create

OP = (1, 1, 1)


class Clock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now


class Tee:
    """Records a forged stream into a full tracer, with a network hop
    beside every record as in a real trace, and into the fuzzer's
    oracle tracer."""

    def __init__(self, clk):
        self.full = Tracer(clk)
        self.cut = OracleTracer()
        self.cut.bind(clk)

    def event(self, name, node, **kw):
        for t in (self.full, self.cut):
            t.event("msg", node, cat="net", op_id=kw.get("op_id"))
            t.event(name, node, **kw)

    def begin(self, name, node, **kw):
        for t in (self.full, self.cut):
            t.event("msg", node, cat="net", op_id=kw.get("op_id"))
        return TeeSpan(self.full.begin(name, node, **kw),
                       self.cut.begin(name, node, **kw))


class TeeSpan:
    def __init__(self, *spans):
        self.spans = spans

    def end(self, **extra):
        for span in self.spans:
            span.end(**extra)


def tracer_at():
    """A recording tee plus its clock, for hand-built event streams."""
    clk = Clock()
    return Tee(clk), clk


def _judged(t, leg):
    full = getattr(InvariantChecker(t.full.events), leg)()
    cut = getattr(InvariantChecker(t.cut.events), leg)()
    assert [str(v) for v in full] == [str(v) for v in cut]
    assert len(t.cut.events) < len(t.full.events)
    return full


def safety(t):
    return _judged(t, "check_safety")


def liveness(t):
    return _judged(t, "check_liveness")


class TestSyntheticSafety:
    def test_clean_stream_passes(self):
        t, clk = tracer_at()
        t.event("decision", "mds0", op_id=OP, committed=True)
        t.event("decision", "mds1", op_id=OP, committed=True)
        clk.now = 1.0
        t.event("wal.prune", "mds0", op_id=OP)
        t.event("writeback", "mds1", op_id=OP)
        assert safety(t) == []

    def test_torn_decision_flagged(self):
        t, _clk = tracer_at()
        t.event("decision", "mds0", op_id=OP, committed=True)
        t.event("decision", "mds1", op_id=OP, committed=False)
        (v,) = safety(t)
        assert v.kind == "atomic-decision"
        assert v.op_id == OP
        assert "mds0=commit" in v.detail and "mds1=abort" in v.detail

    def test_prune_without_decision_flagged(self):
        t, _clk = tracer_at()
        t.event("wal.prune", "mds0", op_id=OP)
        (v,) = safety(t)
        assert v.kind == "decided-before-prune"
        assert v.node == "mds0"

    def test_prune_before_decision_flagged(self):
        t, clk = tracer_at()
        t.event("wal.prune", "mds0", op_id=OP)
        clk.now = 2.0
        t.event("decision", "mds0", op_id=OP, committed=True)
        assert any(
            v.kind == "decided-before-prune"
            for v in safety(t)
        )

    def test_recovery_prune_after_crash_excused(self):
        t, clk = tracer_at()
        t.event("server.crash", "mds0")
        clk.now = 1.0
        t.event("wal.prune", "mds0", op_id=OP)  # recovery prunes the log
        assert safety(t) == []

    def test_writeback_before_decision_flagged(self):
        t, clk = tracer_at()
        t.event("writeback", "mds1", op_id=OP)
        clk.now = 1.0
        t.event("decision", "mds1", op_id=OP, committed=True)
        (v,) = safety(t)
        assert v.kind == "writeback-after-decision"

    def test_decision_on_other_node_does_not_excuse(self):
        t, _clk = tracer_at()
        t.event("decision", "mds0", op_id=OP, committed=True)
        t.event("wal.prune", "mds1", op_id=OP)  # pruner never decided
        (v,) = safety(t)
        assert v.kind == "decided-before-prune"
        assert v.node == "mds1"


class TestSyntheticLiveness:
    def _exec_ok(self, t, node="mds0"):
        span = t.begin("exec", node, op_id=OP, phase=PHASE_EXEC)
        span.end(ok=True)

    def test_undecided_execution_flagged(self):
        t, _clk = tracer_at()
        self._exec_ok(t)
        (v,) = liveness(t)
        assert v.kind == "eventually-decided"
        assert v.node == "mds0"

    def test_decided_execution_passes(self):
        t, clk = tracer_at()
        self._exec_ok(t)
        clk.now = 1.0
        t.event("decision", "mds0", op_id=OP, committed=True)
        assert liveness(t) == []

    def test_invalidated_execution_excused(self):
        t, clk = tracer_at()
        self._exec_ok(t)
        clk.now = 1.0
        t.event("invalidate", "mds0", op_id=OP)
        assert liveness(t) == []

    def test_crashed_server_excused(self):
        t, clk = tracer_at()
        self._exec_ok(t)
        clk.now = 1.0
        t.event("server.crash", "mds0")
        assert liveness(t) == []

    def test_failed_execution_not_tracked(self):
        t, _clk = tracer_at()
        span = t.begin("exec", "mds0", op_id=OP, phase=PHASE_EXEC)
        span.end(ok=False)  # NO-voted sub-op aborts lazily; no obligation
        assert liveness(t) == []


class TestCrashWindowLiveness:
    """Transient pending-window exemptions vs terminal liveness gaps.

    An undecided op is excused only while the retry machinery is
    provably waiting on a peer that never came back; once the peer
    recovers, the obligation is live again.  Likewise a parked
    decision must eventually be re-delivered unless its peer stayed
    down or the parking node itself crashed (the parked table is
    volatile; recovery re-derives it from the log).
    """

    def _exec_ok(self, t, node="mds0"):
        span = t.begin("exec", node, op_id=OP, phase=PHASE_EXEC)
        span.end(ok=True)

    def test_waiting_on_dead_peer_excused(self):
        t, clk = tracer_at()
        self._exec_ok(t)
        clk.now = 1.0
        t.event("server.crash", "mds1")
        t.event("vote.resolicit", "mds0", op_id=OP, peer="mds1")
        assert liveness(t) == []

    def test_waiting_on_recovered_peer_still_flagged(self):
        t, clk = tracer_at()
        self._exec_ok(t)
        clk.now = 1.0
        t.event("server.crash", "mds1")
        t.event("vote.resolicit", "mds0", op_id=OP, peer="mds1")
        clk.now = 2.0
        t.event("server.reboot", "mds1")  # peer is back: must resolve
        (v,) = liveness(t)
        assert v.kind == "eventually-decided"
        assert v.node == "mds0"

    def test_peer_lost_marker_also_exempts(self):
        t, clk = tracer_at()
        self._exec_ok(t)
        clk.now = 1.0
        t.event("server.crash", "mds1")
        t.event("commit.peer_lost", "mds0", op_id=OP, peer="mds1")
        assert liveness(t) == []

    def test_parked_decision_never_redelivered_flagged(self):
        t, clk = tracer_at()
        t.event("server.crash", "mds1")
        t.event("commit.park", "mds0", op_id=OP, peer="mds1")
        clk.now = 2.0
        t.event("server.reboot", "mds1")  # recovered, park never drained
        (v,) = liveness(t)
        assert v.kind == "parked-undecided"
        assert v.node == "mds0"

    def test_unparked_decision_passes(self):
        t, clk = tracer_at()
        t.event("server.crash", "mds1")
        t.event("commit.park", "mds0", op_id=OP, peer="mds1")
        clk.now = 2.0
        t.event("server.reboot", "mds1")
        t.event("commit.unpark", "mds0", op_id=OP)
        assert liveness(t) == []

    def test_parked_against_dead_peer_excused(self):
        t, _clk = tracer_at()
        t.event("server.crash", "mds1")
        t.event("commit.park", "mds0", op_id=OP, peer="mds1")
        assert liveness(t) == []

    def test_parking_node_crash_clears_obligation(self):
        t, clk = tracer_at()
        t.event("commit.park", "mds0", op_id=OP, peer="mds1")
        clk.now = 1.0
        t.event("server.crash", "mds0")  # volatile parked table is gone
        assert liveness(t) == []


class TestTracedClusterRun:
    """End-to-end: a real Cx replay satisfies every invariant and emits
    the per-phase spans the paper's timeline decomposition names."""

    def run_creates(self, n=6):
        cluster = build_cluster("cx")
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        ops = [cross_server_create(cluster, proc, d, tag=f"t{i}") for i in range(n)]
        runner = cluster.run_ops(proc, ops)
        results = run_to_completion(cluster, runner)
        assert all(r.ok for r in results)
        cluster.quiesce_protocol()
        return cluster, ops

    def test_full_check_passes_on_quiesced_run(self):
        cluster, _ops = self.run_creates()
        assert check_trace(cluster.tracer, liveness=True) == []

    def test_every_cross_server_op_has_all_phases_on_both_servers(self):
        cluster, ops = self.run_creates()
        t = cluster.tracer
        for op in ops:
            spans = [e for e in t.events_for(op.op_id) if e.ph == "X"]
            for phase in (PHASE_EXEC, PHASE_RECORD, PHASE_COMMIT):
                roles = {
                    e.args.get("role")
                    for e in spans
                    if e.phase == phase
                }
                assert {"coord", "part"} <= roles, (
                    f"{op.op_id}: phase {phase} missing a server role "
                    f"(got {roles})"
                )

    def test_wal_prunes_traced_after_decisions(self):
        cluster, ops = self.run_creates(n=3)
        t = cluster.tracer
        prunes = [e for e in t.events if e.name == "wal.prune"]
        decisions = [e for e in t.events if e.name == "decision"]
        assert prunes and decisions
        # already covered by check_trace, but assert the raw ordering too
        for op in ops:
            for p in (e for e in prunes if e.op_id == op.op_id):
                assert any(
                    d.op_id == op.op_id and d.node == p.node and d.ts <= p.ts
                    for d in decisions
                )


class TestContractScope:
    """Both Cx variants run Cx's commitment, so both owe its contract;
    the baselines have no commitment machinery and are not judged."""

    def forged_serial_exec_trace(self):
        cluster = build_cluster("cx-serial-exec")
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_server_create(cluster, proc, d, tag="f")
        assert all(r.ok for r in run_to_completion(
            cluster, cluster.run_ops(proc, [op])))
        cluster.quiesce_protocol()
        assert check_trace(cluster.tracer, protocol="cx-serial-exec") == []
        # A copy of the trace plus one abort on a server that never
        # decided the committed op: a torn decision.
        decided = {e.node for e in cluster.tracer.events
                   if e.name == "decision" and e.op_id == op.op_id}
        assert decided
        bystander = next(s.node_id for s in cluster.servers
                         if s.node_id not in decided)
        forged = Tracer(Clock(cluster.sim.now))
        forged.events = list(cluster.tracer.events)
        forged.event("decision", bystander, op_id=op.op_id, committed=False)
        return forged, op

    def test_serial_exec_forged_decision_reported(self):
        forged, op = self.forged_serial_exec_trace()
        violations = check_trace(forged, protocol="cx-serial-exec")
        assert [(v.kind, v.op_id) for v in violations] == [
            ("atomic-decision", op.op_id)]
        cut = Tracer(Clock(forged.now()))
        cut.events = [e for e in forged.events
                      if e.name in InvariantChecker.READS]
        assert len(cut.events) < len(forged.events)
        assert [str(v) for v in check_trace(cut, protocol="cx-serial-exec")
                ] == [str(v) for v in violations]

    def test_baselines_not_judged(self):
        forged, _op = self.forged_serial_exec_trace()
        for protocol in ("ofs", "ofs-batched", "2pc", "ce"):
            assert check_trace(forged, protocol=protocol) == []
