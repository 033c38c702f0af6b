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

from repro.core.records import PendingOp, PendingState, RecordType
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
        metrics = role.server.metrics
        self._m_batches = metrics.counter("commit.batches")
        self._m_batch_size = metrics.histogram("commit.batch_size")
        self._m_immediate = metrics.counter("commit.immediate_ops")
        self._m_lazy = metrics.counter("commit.lazy_ops")
        self._m_decisions = metrics.counter("commit.decisions")
        self._m_latency = metrics.histogram("commit.latency")
        self._m_queue_depth = metrics.gauge("commit.queue_depth")
        self._m_rpc_timeouts = metrics.counter("commit.rpc_timeouts")
        self._m_rpc_retries = metrics.counter("commit.rpc_retries")
        self._m_rpc_failed = metrics.counter("commit.rpc_failed")
        self._m_parked = metrics.counter("commit.parked")
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

    def on_crash(self) -> None:
        self.lazy.clear()
        self._pre_requests.clear()
        self.parked.clear()

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

    def enqueue(self, pend: PendingOp) -> None:
        """A coord/single-role op finished executing; queue it."""
        if pend.state is not PendingState.EXECUTED:
            return  # an immediate commitment already picked it up
        pend.enqueued_at = self.role.sim.now
        self.lazy[pend.op_id] = pend
        self._m_queue_depth.set(len(self.lazy))
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
        self._m_batches.inc()
        self._m_batch_size.observe(len(ops))
        if reason == "immediate":
            self._m_immediate.inc(len(ops))
        else:
            self._m_lazy.inc(len(ops))
        self.role.server.spawn(self._commit_batch(ops))

    # -- the batch process ------------------------------------------------------------

    def rpc(
        self, dst, kind, payload, *, timeout, attempts=1, size=None,
        span_id=None,
    ):
        """A server-to-server request with bounded retries (recovery's
        markers, parked re-delivery; ``_commit_group`` inlines one try).

        A reply that never comes (the request or the reply was dropped
        by a partition, or the request was delivered just before the
        peer crashed — nobody dead-letters those) would otherwise hang
        the calling process forever, so each attempt carries a
        ``timeout`` deadline in the node's table (:meth:`Node.request`).

        Raises :class:`ConnectionError` once every attempt failed
        (dead-lettered, partition-dropped or overdue): the caller
        retries later, skips the peer or parks the work.  Our *own*
        crash never surfaces here: it kills the calling process first.
        """
        server = self.role.server
        tracer = self.tracer
        for attempt in range(attempts):
            if attempt:
                self._m_rpc_retries.inc()
                if tracer.enabled:
                    tracer.event(
                        "commit.rpc_retry", server.node_id,
                        cat="protocol", kind=kind.value, peer=dst,
                        attempt=attempt,
                    )
            try:
                return (yield server.request(
                    dst, kind, payload, size=size, span_id=span_id,
                    timeout=timeout,
                ))
            except (ConnectionError, TimeoutError) as exc:
                self._unanswered(dst, kind, exc)
        self._m_rpc_failed.inc()
        raise ConnectionError(f"{kind.value} to {dst}: no reply")

    def _unanswered(self, dst, kind, exc: Exception) -> None:
        """Count one request attempt that got no reply (peer down, overdue)."""
        if isinstance(exc, TimeoutError):
            self._m_rpc_timeouts.inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "commit.rpc_timeout", self.role.server.node_id,
                    cat="protocol", kind=kind.value, peer=dst,
                )

    def _commit_batch(self, ops: List[PendingOp]):
        spawn = self.role.server.spawn
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
        procs = [
            spawn(self._commit_group(part_idx, group, done))
            for part_idx, group in groups.items()
        ]
        # Single-server operations decide locally — no peer round-trip.
        for p in singles:
            self._record_decision(p, p.ok)
            done.append(p)
        if procs:
            yield self.role.sim.all_of(procs)
        if done:
            yield from self._settle(done)

    def _settle(self, done: List[PendingOp]):
        """Steps 6–7 for decided *and* acknowledged operations — the
        one tail every commitment ends in, whether it got here from a
        live batch, a parked re-delivery or a recovery pass."""
        role = self.role
        # "synchronize metadata objects into database": one batched,
        # merged write-back of the decided objects — durable *before*
        # their Complete-Records, so a crash never finds a pruned log
        # with the updates still volatile.
        keys = [k for p in done for k, _v in p.result.updates]
        flush = role.server.kv.flush_keys(keys)
        if flush is not None:
            yield flush
        tracer = self.tracer
        if tracer.enabled:
            # Only decided ops were truly synchronized — a participant
            # crash mid-commitment leaves its ops pending for retry.
            for p in done:
                tracer.event(
                    "writeback", role.server.node_id, cat="kv",
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
        for p in done:
            self._finalize(p, p.decided)

    def _commit_group(self, part_idx: int, group: List[PendingOp], done):
        """Commit one participant's share of a batch, sub-batched so no
        two operations in one VOTE conflict on the participant.  One
        flat generator for the whole exchange: a lazy wave holds one per
        (batch, participant) pair at once."""
        role = self.role
        server = role.server
        part_node = role.cluster.server_id(part_idx)
        timeout = role.params.commit_rpc_timeout
        wal = server.wal
        rsize = role.params.log_record_size
        tracer = self.tracer
        try:
            for ops in _split_nonconflicting(group):
                batch_size = role.batch_size(len(ops))
                # Batched messages carry one span context: the first
                # traced op's commitment span stands in for the chunk.
                batch_sid = None
                if tracer.enabled:
                    for p in ops:
                        if p.commit_span is not None and p.commit_span.span_id is not None:
                            batch_sid = p.commit_span.span_id
                            break

                # Step 3–4: VOTE, collect the participant's per-op results.
                kind = MessageKind.VOTE
                votes = (yield server.request(
                    part_node, kind, {"ops": [p.op_id for p in ops]},
                    size=batch_size, span_id=batch_sid, timeout=timeout,
                )).payload["votes"]

                # Step 5: decide; write Commit/Abort records (one group
                # flush: the whole chunk coalesces into one all_of).
                decisions: List[bool] = []
                appends = []
                tracer.ambient = batch_sid
                for p in ops:
                    vote = votes[p.op_id]
                    commit = p.ok and vote["ok"]
                    decisions.append(commit)
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
                yield role.sim.all_of(appends)
                # The decisions are durable: from here on, every retry
                # path must re-deliver them — never re-vote.
                for p, commit in zip(ops, decisions):
                    self._record_decision(p, commit)

                # Steps 5–6: one batched COMMIT-REQ/ABORT-REQ carrying
                # the logged decisions; await the ACK.
                kind = MessageKind.COMMIT_REQ
                ack = yield server.request(
                    part_node, kind,
                    {"decisions": {p.op_id: p.decided for p in ops}},
                    size=batch_size, span_id=batch_sid, timeout=timeout,
                )
                assert ack.kind is MessageKind.ACK
                done.extend(ops)
        except (ConnectionError, TimeoutError) as exc:
            # Participant crashed (or partitioned away) mid-commitment.
            self._unanswered(part_node, kind, exc)
            self._m_rpc_failed.inc()
            done_ids = {d.op_id for d in done}
            traced = tracer.enabled
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
                    tracer.event(
                        "commit.peer_lost", server.node_id,
                        cat="protocol", op_id=p.op_id, peer=part_node,
                    )

    def _record_decision(self, pend: PendingOp, committed: bool) -> None:
        """The commitment decision for ``pend`` is durable: remember it
        on the pending entry and emit the protocol-level decision event
        (the trace event marks the *logged* decision, so it must never
        precede the Commit/Abort append — the atomic-decision invariant
        audits exactly this)."""
        pend.decided = committed
        # Decided: no invalidation can re-queue the request any more.
        pend.req_msg = None
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
        self._m_parked.inc()
        if pend.commit_span is not None:
            pend.commit_span.end(outcome="parked")
            pend.commit_span = None
        if self.tracer.enabled:
            self.tracer.event(
                "commit.park", self.role.server.node_id, cat="protocol",
                op_id=pend.op_id,
                peer=self.role.cluster.server_id(pend.other_server),
            )

    def adopt_decided(self, pend: PendingOp, committed: bool) -> None:
        """Recovery's entry point for an op whose Commit/Abort record
        survived without its Complete-Record: the participant may not
        have heard, so the op re-enters the commitment at decision
        delivery.  The adopted decision is recorded like a fresh one —
        the crash may have hit before the first life emitted it."""
        pend.state = PendingState.COMMITTING
        self._record_decision(pend, committed)
        self._park(pend)

    def finish_parked(self):
        """Re-deliver the parked decisions, one batched COMMIT-REQ per
        participant, and settle what gets acknowledged.  A peer that is
        still unreachable keeps its ops parked for the next scan."""
        role = self.role
        timeout = role.params.recovery_rpc_timeout
        tracer = self.tracer
        while self.parked:
            by_peer: Dict[int, List[PendingOp]] = {}
            for p in self.parked.values():
                by_peer.setdefault(p.other_server, []).append(p)
            progressed = False
            for part_idx, group in by_peer.items():
                try:
                    ack = yield from self.rpc(
                        role.cluster.server_id(part_idx),
                        MessageKind.COMMIT_REQ,
                        {"decisions": {p.op_id: p.decided for p in group}},
                        timeout=timeout, size=role.batch_size(len(group)),
                    )
                except ConnectionError:
                    continue
                assert ack.kind is MessageKind.ACK
                progressed = True
                peer = role.cluster.server_id(part_idx)
                for p in group:
                    del self.parked[p.op_id]
                    if tracer.enabled:
                        tracer.event(
                            "commit.unpark", role.server.node_id,
                            cat="protocol", op_id=p.op_id, peer=peer,
                        )
                yield from self._settle(group)
            if not progressed:
                return

    def _finalize(self, pend: PendingOp, committed: bool) -> None:
        role = self.role
        self._m_decisions.inc()
        if pend.enqueued_at is not None:
            self._m_latency.observe(role.sim.now - pend.enqueued_at)
        if pend.commit_span is not None:
            pend.commit_span.end(committed=committed)
            pend.commit_span = None
        role.server.wal.prune_op(pend.op_id)
        self.lazy.pop(pend.op_id, None)
        self._m_queue_depth.set(len(self.lazy))
        role.pending.pop(pend.op_id, None)
        pend.state = PendingState.DONE
        errno = pend.result.errno if not pend.ok else pend.vote_errno
        role.completed[pend.op_id] = {"committed": committed, "errno": errno}
        released = role.active.release(pend.op_id, committed=True)
        role.reinject_blocked(released, ordered_after=pend)
        if pend.all_no_dst is not None:
            role.server.send(
                pend.all_no_dst,
                MessageKind.ALL_NO,
                {"op_id": pend.op_id, "errno": errno},
            )
        if pend.waiter is not None and not pend.waiter.triggered:
            pend.waiter.succeed()


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
