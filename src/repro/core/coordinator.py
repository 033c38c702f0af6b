"""Cx commitment phase, coordinator side (paper §III.B steps 3–7).

The :class:`CommitManager` owns the lazy-commitment queue of every
operation this server coordinates (plus its single-server operations,
which commit locally).  Commitments are launched by triggers (timeout /
threshold — §IV.A), by the log-full condition, by a client's L-COM
(disagreement), or by a conflict (immediate commitment of the pending
operation another process bumped into).

A launched batch is grouped per participant server so the whole
VOTE → YES/NO → COMMIT-REQ/ABORT-REQ → ACK exchange costs **four
messages per (batch, participant) pair** regardless of batch size, and
the Commit/Abort/Complete records of a batch group-commit into single
log flushes — the two amortizations the paper's Table IV and Figure 9
measure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.records import PendingOp, PendingState, RecordType, StaleEpoch
from repro.fs.objects import inode_key
from repro.net.message import MessageKind
from repro.obs.tracer import PHASE_COMMIT, PHASE_WRITEBACK
from repro.storage.wal import LogRecord, OpId

#: Record-type strings, resolved once — enum attribute + ``.value``
#: chains are measurable at one Commit/Abort plus one Complete record
#: per coordinated operation.
_COMMIT = RecordType.COMMIT.value
_ABORT = RecordType.ABORT.value
_COMPLETE = RecordType.COMPLETE.value

#: Sentinel: `_rpc` should use ``params.commit_rpc_timeout``.
_DEFAULT_TIMEOUT = object()

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.role import CxRole


class CommitManager:
    """Lazy queue + batched/immediate commitment driver."""

    def __init__(self, role: "CxRole") -> None:
        self.role = role
        #: Hoisted observability handles: one attribute load on the hot
        #: path instead of a chain of lookups per op (the tracer is
        #: fixed at cluster build time, so caching it is safe).
        self.tracer = role.server.tracer
        self.metrics = role.server.metrics
        # Meter handles resolve lazily on first use — eager creation
        # would add zero-valued entries to metrics snapshots and change
        # replay results.
        self._m_batches = None
        self._m_batch_size = None
        self._m_immediate = None
        self._m_lazy = None
        self._m_decisions = None
        self._m_latency = None
        self._m_queue_depth = None
        self._m_rpc_timeouts = None
        self._m_parked = None
        #: coord/single-role pendings awaiting lazy commitment.
        self.lazy: Dict[OpId, PendingOp] = {}
        #: Immediate-commitment requests that arrived before the op
        #: executed here (disordered L-COMs): op_id -> all_no destination.
        self._pre_requests: Dict[OpId, Optional[str]] = {}
        #: Decided ops whose COMMIT-REQ could not reach the participant
        #: (crash or partition): the logged decision must be re-delivered
        #: — never re-voted — once the peer is reachable again.  The
        #: trigger scan drives re-delivery.
        self.parked: Dict[OpId, PendingOp] = {}
        self._parked_inflight = False
        self.batches_launched = 0
        self.immediate_commits = 0
        self.lazy_commits = 0

    def on_crash(self) -> None:
        self.lazy.clear()
        self._pre_requests.clear()
        self.parked.clear()
        self._parked_inflight = False

    # -- queueing ------------------------------------------------------------

    def adopt_pre_request(self, pend: PendingOp) -> None:
        """Fold any stored pre-execution immediate request into ``pend``.

        Called as soon as the pending entry exists, so conflicting
        requests arriving mid-log-write see consistent state.
        """
        if pend.op_id in self._pre_requests:
            dst = self._pre_requests.pop(pend.op_id)
            pend.all_no_dst = pend.all_no_dst or dst
            pend.immediate_requested = True

    def _queue_depth_gauge(self):
        g = self._m_queue_depth
        if g is None:
            g = self._m_queue_depth = self.metrics.gauge("commit.queue_depth")
        return g

    def enqueue(self, pend: PendingOp) -> None:
        """A coord/single-role op finished executing; queue it."""
        if pend.state is not PendingState.EXECUTED:
            return  # an immediate commitment already picked it up
        pend.enqueued_at = self.role.sim.now
        self.lazy[pend.op_id] = pend
        self._queue_depth_gauge().set(len(self.lazy))
        if pend.immediate_requested:
            self.launch_ops([pend], "immediate")
        else:
            self.role.triggers.notify_pending(len(self.lazy))

    def request_immediate(
        self, op_id: OpId, all_no_dst: Optional[str] = None
    ) -> None:
        """Get ``op_id`` committed now (conflict or disagreement path)."""
        role = self.role
        pend = role.pending.get(op_id)
        if pend is None:
            done = role.completed.get(op_id)
            if done is not None:
                if all_no_dst is not None:
                    role.server.send(
                        all_no_dst,
                        MessageKind.ALL_NO,
                        {"op_id": op_id, "errno": done["errno"]},
                    )
                return
            # Not executed here yet (e.g. our sub-op is still queued):
            # remember the request; enqueue() will honor it.
            self._pre_requests.setdefault(op_id, all_no_dst)
            return
        if all_no_dst is not None:
            pend.all_no_dst = all_no_dst
        if pend.role == "part":
            # Only the coordinator can commit; ask it (the paper's
            # L-COM message, server-to-server).
            if not pend.lcom_sent:
                pend.lcom_sent = True
                role.server.send(
                    role.cluster.server_id(pend.other_server),
                    MessageKind.L_COM,
                    {"op": op_id},
                )
            return
        if pend.state is PendingState.COMMITTING:
            return  # already in flight; its completion resolves everything
        self.launch_ops([pend], "immediate")

    # -- launching ---------------------------------------------------------------

    def launch_all(self, reason: str) -> None:
        ops = [p for p in self.lazy.values() if p.state is PendingState.EXECUTED]
        if ops:
            self.launch_ops(ops, reason)

    def launch_ops(self, ops: List[PendingOp], reason: str) -> None:
        server = self.role.server
        tracer = self.tracer
        for p in ops:
            p.state = PendingState.COMMITTING
            if tracer.enabled:
                p.commit_span = tracer.begin(
                    "commitment", server.node_id, op_id=p.op_id,
                    phase=PHASE_COMMIT, parent=p.exec_span_id,
                    role=p.role, reason=reason,
                )
        self.batches_launched += 1
        m = self._m_batches
        if m is None:
            m = self._m_batches = self.metrics.counter("commit.batches")
            self._m_batch_size = self.metrics.histogram("commit.batch_size")
        m.inc()
        self._m_batch_size.observe(len(ops))
        if reason == "immediate":
            self.immediate_commits += len(ops)
            m = self._m_immediate
            if m is None:
                m = self._m_immediate = self.metrics.counter("commit.immediate_ops")
            m.inc(len(ops))
        else:
            self.lazy_commits += len(ops)
            m = self._m_lazy
            if m is None:
                m = self._m_lazy = self.metrics.counter("commit.lazy_ops")
            m.inc(len(ops))
        self.role.sim.process(self._commit_batch(ops))

    # -- the batch process ------------------------------------------------------------

    def _rpc(
        self, dst, kind, payload, size=None, span_id=None,
        timeout=_DEFAULT_TIMEOUT,
    ):
        """Commitment RPC with an optional liveness watchdog.

        A reply that never comes (the request or the reply was dropped
        by a partition, or the request was delivered just before the
        peer crashed — nobody dead-letters those) would otherwise hang
        the batch process forever.  With ``commit_rpc_timeout`` set, an
        overdue reply is abandoned as a connection failure, which the
        callers' ConnectionError handling turns into retry-or-park.
        ``None`` (the default) keeps the RPC unbounded and schedules no
        timer at all — fault-free replays are byte-identical.

        Raises :class:`StaleEpoch` when the server crashed while the
        RPC was in flight — the caller must unwind without touching any
        protocol state (it all belongs to the next epoch now).
        """
        role = self.role
        epoch = role.epoch
        try:
            ev = role.server.request(dst, kind, payload, size=size, span_id=span_id)
            if timeout is _DEFAULT_TIMEOUT:
                timeout = role.params.commit_rpc_timeout
            if timeout is None:
                resp = yield ev
                if role.epoch != epoch:
                    raise StaleEpoch
                return resp
            winner, val = yield role.sim.any_of([ev, role.sim.timeout(timeout)])
        except ConnectionError:
            # *Our* crash also fails our in-flight RPCs with
            # ConnectionError; that must unwind as StaleEpoch (torn
            # state), not as retry-or-park against the dead peer.
            if role.epoch != epoch:
                raise StaleEpoch
            raise
        if role.epoch != epoch:
            raise StaleEpoch
        if winner is ev:
            return val
        m = self._m_rpc_timeouts
        if m is None:
            m = self._m_rpc_timeouts = self.metrics.counter("commit.rpc_timeouts")
        m.inc()
        if self.tracer.enabled:
            self.tracer.event(
                "commit.rpc_timeout", role.server.node_id, cat="protocol",
                kind=kind.value, peer=dst,
            )
        raise ConnectionError(f"{kind.value} to {dst} timed out")

    def _commit_batch(self, ops: List[PendingOp]):
        role = self.role
        epoch = role.epoch
        groups: Dict[int, List[PendingOp]] = {}
        singles: List[PendingOp] = []
        for p in ops:
            if p.role == "single":
                singles.append(p)
            else:
                groups.setdefault(p.other_server, []).append(p)

        #: Decided *and* acknowledged ops, appended by each group as its
        #: chunks resolve; the batch tail flushes/completes them as one.
        done: List[PendingOp] = []
        procs = []
        for part_idx, group in groups.items():
            procs.append(
                self.role.sim.process(self._commit_group(part_idx, group, done))
            )
        # Single-server operations decide locally — no peer round-trip.
        for p in singles:
            self._record_decision(p, p.ok)
            done.append(p)
        if procs:
            yield self.role.sim.all_of(procs)
            if role.epoch != epoch:
                return  # crashed mid-batch; this state died with us
        if not done:
            return
        # "synchronize metadata objects into database": one batched,
        # merged write-back of the decided objects — durable *before*
        # their Complete-Records, so a crash never finds a pruned log
        # with the updates still volatile.
        keys = [k for p in done for k, _v in p.result.updates]
        flush = self.role.server.kv.flush_keys(keys)
        if flush is not None:
            yield flush
            if role.epoch != epoch:
                return
        tracer = self.tracer
        if tracer.enabled:
            # Only decided ops were truly synchronized — a participant
            # crash mid-commitment leaves its ops pending for retry.
            for p in done:
                tracer.event(
                    "writeback", self.role.server.node_id, cat="kv",
                    op_id=p.op_id, phase=PHASE_WRITEBACK,
                )
        # Step 7: Complete-Records (coalesced across the whole batch
        # into one group-committed flush), then finalize.
        wal = role.server.wal
        rsize = role.params.log_record_size
        completes = []
        for p in done:
            sid = p.commit_span.span_id if p.commit_span is not None else None
            tracer.ambient = sid
            completes.append(
                wal.append(LogRecord(p.op_id, _COMPLETE, size=rsize), urgent=True)
            )
        tracer.ambient = None
        yield role.sim.all_of(completes)
        if role.epoch != epoch:
            return
        for p in done:
            self._finalize(p, p.decided)

    def _commit_group(self, part_idx: int, group: List[PendingOp], done):
        """Commit one participant's share of a batch, sub-batched so no
        two operations in one VOTE conflict on the participant."""
        try:
            for chunk in _split_nonconflicting(group):
                yield from self._commit_group_once(part_idx, chunk, done)
        except StaleEpoch:
            # We crashed mid-exchange: every pend here was already torn
            # down by on_crash — touching it (park, state reset) would
            # resurrect pre-crash state into the new epoch.
            return
        except ConnectionError:
            # Participant crashed (or partitioned away) mid-commitment.
            done_ids = {d.op_id for d in done}
            peer_node = self.role.cluster.server_id(part_idx)
            traced = self.tracer.enabled
            for p in group:
                if p.op_id in done_ids:
                    continue  # acked before the failure: completes normally
                if p.decided is not None:
                    # Decision already durable: the op can never re-vote.
                    # Park it for decision re-delivery once the peer is
                    # back (trigger-scan driven).
                    self._park(p)
                    continue
                # Undecided: the op simply stays pending; recovery (or
                # the next trigger) will retry the whole exchange.
                if p.state is PendingState.COMMITTING:
                    p.state = PendingState.EXECUTED
                if p.commit_span is not None:
                    p.commit_span.end(outcome="peer-crashed")
                    p.commit_span = None
                if traced:
                    self.tracer.event(
                        "commit.peer_lost", self.role.server.node_id,
                        cat="protocol", op_id=p.op_id, peer=peer_node,
                    )

    def _commit_group_once(self, part_idx: int, ops: List[PendingOp], done):
        role = self.role
        server = role.server
        part_node = role.cluster.server_id(part_idx)
        batch_size = (
            role.params.msg_base_size + role.params.msg_per_op_size * len(ops)
        )
        # Batched messages carry one span context: the first traced
        # op's commitment span stands in for the whole chunk.
        batch_sid = None
        if self.tracer.enabled:
            for p in ops:
                if p.commit_span is not None and p.commit_span.span_id is not None:
                    batch_sid = p.commit_span.span_id
                    break

        # Step 3–4: VOTE, collect the participant's per-op results.
        votes_resp = yield from self._rpc(
            part_node,
            MessageKind.VOTE,
            {"ops": [p.op_id for p in ops]},
            size=batch_size,
            span_id=batch_sid,
        )
        votes = votes_resp.payload["votes"]

        # Step 5: decide; write Commit/Abort records (one group flush).
        # A pre-built append list: the whole batch coalesces into one
        # all_of over one group-committed flush.
        wal = server.wal
        rsize = role.params.log_record_size
        decisions: Dict[OpId, bool] = {}
        appends = []
        tracer = self.tracer
        tracer.ambient = batch_sid
        for p in ops:
            vote = votes[p.op_id]
            commit = p.ok and vote["ok"]
            decisions[p.op_id] = commit
            p.vote_errno = vote["errno"]
            if not commit and p.ok:
                # Our half succeeded but the op aborts: roll back.
                server.shard.apply_deferred(p.result.undo)
            appends.append(
                wal.append(
                    LogRecord(p.op_id, _COMMIT if commit else _ABORT, size=rsize),
                    urgent=True,
                )
            )
        tracer.ambient = None
        epoch = role.epoch
        yield role.sim.all_of(appends)
        if role.epoch != epoch:
            # Crash window: the records above were either torn out of
            # the log (the crash dropped the in-flight flush batch, yet
            # its completion handles still fired) or survive for the
            # *recovery* pass to finish.  Either way this generator is
            # a zombie — emitting the decision or messaging the peer
            # here would write protocol history for a dead server.
            raise StaleEpoch
        # The decisions are durable: from here on, every retry path must
        # re-deliver them — never re-vote.
        for p in ops:
            self._record_decision(p, decisions[p.op_id])

        # Step 5–6: COMMIT-REQ/ABORT-REQ (batched), await the ACK.
        ack = yield from self._rpc(
            part_node,
            MessageKind.COMMIT_REQ,
            {"decisions": decisions},
            size=batch_size,
            span_id=batch_sid,
        )
        assert ack.kind is MessageKind.ACK
        done.extend(ops)

    def _record_decision(self, pend: PendingOp, committed: bool) -> None:
        """The commitment decision for ``pend`` is durable: remember it
        on the pending entry and emit the protocol-level decision event
        (the trace event marks the *logged* decision, so it must never
        precede the Commit/Abort append — the atomic-decision invariant
        audits exactly this)."""
        pend.decided = committed
        tracer = self.tracer
        if tracer.enabled:
            sid = (
                pend.commit_span.span_id if pend.commit_span is not None else None
            )
            tracer.event(
                "decision", self.role.server.node_id, cat="protocol",
                op_id=pend.op_id, parent=sid,
                committed=committed, role=pend.role,
            )

    # -- parked decisions ---------------------------------------------------

    def _park(self, pend: PendingOp) -> None:
        """Shelve a decided-but-unacknowledged op for re-delivery."""
        self.parked[pend.op_id] = pend
        m = self._m_parked
        if m is None:
            m = self._m_parked = self.metrics.counter("commit.parked")
        m.inc()
        if pend.commit_span is not None:
            pend.commit_span.end(outcome="parked")
            pend.commit_span = None
        if self.tracer.enabled:
            self.tracer.event(
                "commit.park", self.role.server.node_id, cat="protocol",
                op_id=pend.op_id,
                peer=self.role.cluster.server_id(pend.other_server),
            )

    def scan_parked(self) -> None:
        """Trigger-scan hook: retry parked decision deliveries.

        Runs no sim events when nothing is parked (the common case and
        every fault-free replay); at most one re-delivery process is in
        flight at a time."""
        if not self.parked or self._parked_inflight:
            return
        if self.role.server.quiesced:
            return
        self._parked_inflight = True
        self.role.sim.process(self._finish_parked())

    def _finish_parked(self):
        epoch = self.role.epoch
        try:
            while self.parked:
                by_peer: Dict[int, List[PendingOp]] = {}
                for p in self.parked.values():
                    by_peer.setdefault(p.other_server, []).append(p)
                progressed = False
                for part_idx, group in by_peer.items():
                    try:
                        yield from self._redeliver_group(part_idx, group)
                        progressed = True
                    except StaleEpoch:
                        return  # crashed; parked table already cleared
                    except ConnectionError:
                        continue  # peer still unreachable; next scan retries
                if not progressed:
                    return
        finally:
            # After a crash the inflight flag belongs to the new epoch's
            # scan (on_crash reset it; a fresh scan may already be up).
            if self.role.epoch == epoch:
                self._parked_inflight = False

    def _redeliver_group(self, part_idx: int, group: List[PendingOp]):
        """Re-deliver logged decisions to a (hopefully) recovered peer,
        then flush + complete the acknowledged ops, exactly as the
        normal batch tail would have."""
        role = self.role
        part_node = role.cluster.server_id(part_idx)
        decisions = {p.op_id: p.decided for p in group}
        size = (
            role.params.msg_base_size
            + role.params.msg_per_op_size * len(group)
        )
        ack = yield from self._rpc(
            part_node,
            MessageKind.COMMIT_REQ,
            {"decisions": decisions},
            size=size,
            timeout=role.params.recovery_rpc_timeout,
        )
        assert ack.kind is MessageKind.ACK
        epoch = role.epoch
        keys = [k for p in group for k, _v in p.result.updates]
        flush = role.server.kv.flush_keys(keys)
        if flush is not None:
            yield flush
            if role.epoch != epoch:
                raise StaleEpoch
        tracer = self.tracer
        if tracer.enabled:
            for p in group:
                tracer.event(
                    "commit.unpark", role.server.node_id, cat="protocol",
                    op_id=p.op_id, peer=part_node,
                )
                tracer.event(
                    "writeback", role.server.node_id, cat="kv",
                    op_id=p.op_id, phase=PHASE_WRITEBACK,
                )
        wal = role.server.wal
        rsize = role.params.log_record_size
        completes = [
            wal.append(LogRecord(p.op_id, _COMPLETE, size=rsize), urgent=True)
            for p in group
        ]
        yield role.sim.all_of(completes)
        if role.epoch != epoch:
            raise StaleEpoch
        for p in group:
            self.parked.pop(p.op_id, None)
            self._finalize(p, p.decided)

    def _finalize(self, pend: PendingOp, committed: bool) -> None:
        role = self.role
        m = self._m_decisions
        if m is None:
            m = self._m_decisions = self.metrics.counter("commit.decisions")
        m.inc()
        if pend.enqueued_at is not None:
            m = self._m_latency
            if m is None:
                m = self._m_latency = self.metrics.histogram("commit.latency")
            m.observe(role.sim.now - pend.enqueued_at)
        if pend.commit_span is not None:
            pend.commit_span.end(committed=committed)
            pend.commit_span = None
        role.server.wal.prune_op(pend.op_id)
        self.lazy.pop(pend.op_id, None)
        self._queue_depth_gauge().set(len(self.lazy))
        role.pending.pop(pend.op_id, None)
        pend.state = PendingState.DONE
        errno = pend.result.errno if not pend.ok else getattr(pend, "vote_errno", None)
        role.completed[pend.op_id] = {"committed": committed, "errno": errno}
        released = role.active.release(pend.op_id, committed=True)
        role.reinject_blocked(released, ordered_after=pend)
        if pend.all_no_dst is not None:
            role.server.send(
                pend.all_no_dst,
                MessageKind.ALL_NO,
                {"op_id": pend.op_id, "errno": errno},
            )
        for ev in pend.waiters:
            if not ev.triggered:
                ev.succeed()


def _split_nonconflicting(ops: List[PendingOp]) -> List[List[PendingOp]]:
    """Partition a participant group so each chunk has unique
    participant-side conflict keys (the target inode).

    Two ops of one batch that conflict *with each other* on the
    participant would deadlock a single VOTE (the second is blocked
    behind the first, whose commitment is this very vote); committing
    them in successive chunks resolves the order naturally.
    """
    chunks: List[List[PendingOp]] = []
    chunk_keys: List[set] = []
    for p in ops:
        key = inode_key(p.subop.args["target"])
        for i, keys in enumerate(chunk_keys):
            if key not in keys:
                chunks[i].append(p)
                keys.add(key)
                break
        else:
            chunks.append([p])
            chunk_keys.append({key})
    return chunks
