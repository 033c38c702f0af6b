"""Cx commitment phase, participant side (paper §III.B steps 4 & 6,
plus the disordered-conflict handling of §III.C).

On a VOTE the participant answers from its Result-Records.  Three
states are possible per voted operation:

* **executed** here → vote its recorded result;
* **blocked** here behind another *executed, uncommitted* operation B →
  this is the disordered conflict of Fig. 3(b): the coordinator's vote
  carries its execution order, so the participant *invalidates* B
  (undoes its memory effects, invalidates its Result-Record, requeues
  its request as a new arrival), executes the voted sub-op inline, and
  votes on the fresh result;
* **not arrived yet** (the client's request is still on the wire, or
  queued behind an in-flight commitment) → the vote waits until the
  sub-op executes.

On a COMMIT-REQ/ABORT-REQ batch the participant applies/undoes, writes
Commit/Abort-Records (terminal for the participant: its records become
prunable), flushes its store, releases the operations' active objects,
and ACKs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

from repro.core.records import PendingOp, PendingState, RecordType
from repro.net.message import Message, MessageKind
from repro.obs.tracer import PHASE_COMMIT, PHASE_WRITEBACK
from repro.sim import Event
from repro.storage.wal import LogRecord, OpId

_COMMIT = RecordType.COMMIT.value
_ABORT = RecordType.ABORT.value

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.role import CxRole


class ParticipantHalf:
    """VOTE / COMMIT-REQ handlers and the invalidation machinery."""

    def __init__(self, role: "CxRole") -> None:
        self.role = role
        #: Hoisted tracer handle (fixed at cluster build time).
        self.tracer = role.server.tracer
        metrics = role.server.metrics
        self._m_votes_answered = metrics.counter("votes.answered")
        self._m_votes_deferred = metrics.counter("votes.deferred")
        self._m_invalidations = metrics.counter("disorder.invalidations")
        self._m_decisions = metrics.counter("commit.decisions")
        self._m_votes_lost = metrics.counter("votes.lost")
        self._m_resolicits = metrics.counter("votes.resolicited")
        self._m_decisions_unknown = metrics.counter("commit.decisions_unknown")
        #: Votes waiting for an op to execute here:
        #: op_id -> [(event, armed_at virtual time)].
        self._vote_waiters: Dict[OpId, List[Tuple[Event, float]]] = {}

    def on_crash(self) -> None:
        self._vote_waiters.clear()

    def fulfill_vote_waiters(self, op_id: OpId) -> None:
        for ev, _armed_at in self._vote_waiters.pop(op_id, ()):
            if not ev.triggered:
                ev.succeed()

    def has_vote_waiter(self, op_id: OpId) -> bool:
        """A deferred vote exists for ``op_id`` — i.e. the coordinator
        has already ordered it first in an in-flight commitment."""
        return bool(self._vote_waiters.get(op_id))

    def has_vote_waiters(self) -> bool:
        """Any deferred vote at all (the liveness scan would look at it)."""
        return bool(self._vote_waiters)

    # -- VOTE -----------------------------------------------------------------

    def handle_vote(self, msg: Message) -> Optional[Generator]:
        """Cast the requested votes and answer YES with the lot.

        The common case — by the time a lazy commitment's VOTE arrives,
        every voted op finished its half here long ago — is answered
        inline.  At the first op that is not executed and logged yet
        the same walk continues as a generator, which may wait.
        """
        pending = self.role.pending
        ops = msg.payload["ops"]
        votes: Dict[OpId, dict] = {}
        for i, op_id in enumerate(ops):
            pend = pending.get(op_id)
            if pend is None or not pend.logged:
                return self._vote_waiting(msg, ops[i:], votes)
            self._cast(msg, pend, votes)
        self._send_votes(msg, votes)
        return None

    def _vote_waiting(self, msg: Message, ops, votes: Dict[OpId, dict]) -> Generator:
        role = self.role
        for op_id in ops:
            pend = role.pending.get(op_id)
            if pend is None:
                done = role.completed.get(op_id)
                if done is not None:
                    # Already decided here (a coordinator that lost its
                    # decision record is re-asking): the vote must echo
                    # the decided outcome, never re-open the question.
                    votes[op_id] = {
                        "ok": done["committed"],
                        "errno": done["errno"],
                        "decided": True,
                    }
                    continue
            if pend is None or not pend.logged:
                pend = yield from self._materialize(op_id)
            if pend is None:
                # The op never arrived within the vote-retry window: its
                # request died with a crashed process/wire.  Vote an
                # explicit lost-abort so the coordinator can resolve the
                # batch instead of wedging forever.
                votes[op_id] = {"ok": False, "errno": "ELOST", "lost": True}
                self._m_votes_lost.inc()
                if self.tracer.enabled:
                    self.tracer.event(
                        "vote.lost", role.server.node_id, cat="protocol",
                        op_id=op_id,
                    )
                continue
            self._cast(msg, pend, votes)
        self._send_votes(msg, votes)

    def _cast(self, msg: Message, pend: PendingOp, votes: Dict[OpId, dict]) -> None:
        votes[pend.op_id] = {"ok": pend.ok, "errno": pend.result.errno}
        # Once voted, the op may no longer be invalidated, so its
        # request will never be re-queued.
        pend.state = PendingState.COMMITTING
        pend.req_msg = None
        # The participant's commitment phase opens at its vote (a
        # coordinator retry after a crash finds the span open).
        if self.tracer.enabled and pend.commit_span is None:
            pend.commit_span = self.tracer.begin(
                "commitment", self.role.server.node_id, op_id=pend.op_id,
                phase=PHASE_COMMIT, parent=msg.span_id, role="part",
            )

    def _send_votes(self, msg: Message, votes: Dict[OpId, dict]) -> None:
        self._m_votes_answered.inc(len(votes))
        self.role.server.send_reply(
            msg, MessageKind.YES, {"votes": votes},
            size=self.role.batch_size(len(votes)),
        )

    def _materialize(self, op_id: OpId) -> Generator:
        """Get the voted op executed here, whatever its current state.

        Returns ``None`` when the wait is abandoned by the vote-retry
        timer (the op's request never arrived and never will — it died
        with a crashed process or a partitioned wire)."""
        role = self.role
        while True:
            pend = role.pending.get(op_id)
            if pend is not None and pend.logged:
                return pend
            if pend is None:
                blocked = role.active.find_blocked(op_id)
                if blocked is not None:
                    holder, blocked_msg = blocked
                    holder_pend = role.pending.get(holder)
                    if self.can_invalidate(holder_pend):
                        # Disordered conflict: enforce the coordinator's
                        # order.  Detach the voted request first so the
                        # invalidation's requeue does not double-dispatch
                        # it.
                        role.active.unblock_one(holder, blocked_msg)
                        self.invalidate(holder_pend)
                        return (yield from role.execute_now(
                            blocked_msg, voted=True))
                    # Holder is mid-commitment: once it resolves, the
                    # blocked request is re-injected and executes; wait
                    # for that.
            # (pend exists but its Result-Record is not durable yet:
            # wait for the append to land — execute_now fulfills the
            # waiters right after it.)
            ev = Event(role.sim)
            self._vote_waiters.setdefault(op_id, []).append((ev, role.sim.now))
            self._m_votes_deferred.inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "vote.deferred", role.server.node_id, cat="protocol",
                    op_id=op_id,
                )
            val = yield ev
            if val == "abandon":
                return None

    @staticmethod
    def can_invalidate(pend: Optional[PendingOp]) -> bool:
        """Only an op no commitment has ordered yet may be undone.

        ``COMMITTING`` covers both ways a vote orders an op here: the
        vote was cast, or the op was executed inline *for* a VOTE and
        its cast is only waiting for the Result-Record.  Undoing either
        would leave the coordinator deciding on a result this server no
        longer holds.
        """
        return pend is not None and pend.state is PendingState.EXECUTED

    def invalidate(self, holder: PendingOp) -> None:
        """Undo an executed-but-uncommitted op and requeue its request.

        Paper Fig. 3(b) step 4: "the participant first invalidates the
        execution of Ep-B by invalidating the Result-Record of Ep-B ...
        The invalidated Ep-B is re-queued as a new arrival sub-op
        request."
        """
        role = self.role
        self._m_invalidations.inc()
        if self.tracer.enabled:
            self.tracer.event(
                "invalidate", role.server.node_id, cat="protocol",
                op_id=holder.op_id,
            )
        role.server.shard.apply_deferred(holder.result.undo)
        role.server.wal.invalidate(holder.record)
        role.pending.pop(holder.op_id, None)
        blocked = role.active.release(holder.op_id, committed=False)
        # The holder itself becomes a fresh arrival again...
        if holder.req_msg is not None:
            role.reinject_blocked([holder.req_msg], ordered_after=None)
        # ...and whatever was blocked behind it gets re-dispatched (the
        # voted sub-op among them is executed inline by the caller, and
        # its message was already removed from this list's source).
        role.reinject_blocked(
            [m for m in blocked if m is not holder.req_msg], ordered_after=None
        )

    # -- COMMIT-REQ / ABORT-REQ ---------------------------------------------------

    def handle_decide(self, msg: Message) -> Generator:
        role = self.role
        server = role.server
        wal = server.wal
        rsize = role.params.log_record_size
        tracer = self.tracer
        m_decisions = self._m_decisions
        decisions: Dict[OpId, bool] = msg.payload["decisions"]
        appends = []
        to_release: List[Tuple[PendingOp, bool]] = []
        tracer.ambient = msg.span_id
        for op_id, commit in decisions.items():
            pend = role.pending.pop(op_id, None)
            if pend is None:
                if op_id not in role.completed:
                    # Not a duplicate: a decision for an op this server
                    # does not hold (it voted ELOST, or lost the op).
                    self._m_decisions_unknown.inc()
                    if tracer.enabled:
                        tracer.event(
                            "decision.unknown", server.node_id,
                            cat="protocol", op_id=op_id,
                            parent=msg.span_id, committed=commit,
                        )
                continue
            if not commit and pend.ok:
                role.server.shard.apply_deferred(pend.result.undo)
            appends.append(
                wal.append(
                    LogRecord(op_id, _COMMIT if commit else _ABORT, size=rsize),
                    urgent=True,
                )
            )
            pend.state = PendingState.DONE
            m_decisions.inc()
            if tracer.enabled:
                tracer.event(
                    "decision", server.node_id, cat="protocol",
                    op_id=op_id, parent=msg.span_id, committed=commit,
                    role="part",
                )
            if pend.commit_span is not None:
                pend.commit_span.end(committed=commit)
                pend.commit_span = None
            role.completed[op_id] = {
                "committed": commit,
                "errno": pend.result.errno,
            }
            to_release.append((pend, commit))
        tracer.ambient = None

        if appends:
            yield role.sim.all_of(appends)
        # Write back the decided operations' objects *before* pruning:
        # a crash after the prune must never find volatile updates whose
        # Result-Records are already gone from the log.
        keys = [k for pend, _c in to_release for k, _v in pend.result.updates]
        flush = role.server.kv.flush_keys(keys)
        if flush is not None:
            yield flush
        # Terminal for the participant: its records become prunable.
        # Only the ops decided *by this call*: a duplicate decide must
        # not blanket-prune — the op's Result-Record may be the only
        # redo copy recovery has left.
        for pend, _commit in to_release:
            role.server.wal.prune_op(pend.op_id)
        if tracer.enabled:
            for pend, _commit in to_release:
                tracer.event(
                    "writeback", server.node_id, cat="kv",
                    op_id=pend.op_id, phase=PHASE_WRITEBACK,
                )
        for pend, _commit in to_release:
            released = role.active.release(pend.op_id, committed=True)
            role.reinject_blocked(released, ordered_after=pend)
        role.server.send_reply(
            msg, MessageKind.ACK, {"acked": list(decisions)},
            size=role.batch_size(len(decisions)),
        )

    # -- vote-retry timer ---------------------------------------------------

    def scan_overdue(self) -> None:
        """Liveness scan, piggybacked on the commit-trigger timer fire.

        Two jobs (paper §III.B's implicit "the participant eventually
        learns the decision" guarantee, made explicit):

        * part-role operations whose commitment decision is overdue
          re-solicit their coordinator with a RESOLICIT (fire-and-forget;
          backoff doubles per retry up to ``vote_retry_timeout *
          vote_retry_backoff_cap``) — this unwedges ops whose VOTE, YES,
          or decision died with a crashed coordinator or a partition;
        * deferred votes for operations that never arrived within the
          retry window are abandoned, so :meth:`handle_vote` answers a
          lost-vote abort instead of waiting forever on a request that
          died on the wire.

        Runs no sim events of its own: fault-free replays see zero
        schedule change.  Suppressed while this server is quiesced for
        a peer's recovery (the coordinator's state is in flux; the
        post-recovery scan fires soon enough).
        """
        role = self.role
        params = role.params
        vrt = params.vote_retry_timeout
        if role.server.quiesced:
            return
        now = role.sim.now
        if role.pending:
            cap = vrt * params.vote_retry_backoff_cap
            for pend in list(role.pending.values()):
                if pend.role != "part":
                    continue
                due = pend.resolicit_at
                if due is None:
                    # First sighting: arm the timer, don't fire yet.
                    pend.resolicit_at = now + vrt
                    pend.resolicit_backoff = vrt
                    continue
                if now < due:
                    continue
                backoff = min((pend.resolicit_backoff or vrt) * 2.0, cap)
                pend.resolicit_backoff = backoff
                pend.resolicit_at = now + backoff
                self._m_resolicits.inc()
                coord_node = role.cluster.server_id(pend.other_server)
                if self.tracer.enabled:
                    self.tracer.event(
                        "vote.resolicit", role.server.node_id, cat="protocol",
                        op_id=pend.op_id, peer=coord_node,
                    )
                role.server.send(
                    coord_node, MessageKind.RESOLICIT, {"op": pend.op_id},
                )
        if self._vote_waiters:
            for op_id in list(self._vote_waiters):
                if op_id in role.pending:
                    continue  # arrived: the fulfill path owns these
                keep: List[Tuple[Event, float]] = []
                for ev, armed_at in self._vote_waiters[op_id]:
                    if now - armed_at >= vrt:
                        if not ev.triggered:
                            ev.succeed("abandon")
                    else:
                        keep.append((ev, armed_at))
                if keep:
                    self._vote_waiters[op_id] = keep
                else:
                    del self._vote_waiters[op_id]
