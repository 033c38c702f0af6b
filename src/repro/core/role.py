"""Cx server role: the execution phase and message dispatch.

Implements steps 1–2 of the paper's basic protocol (§III.B) and the
conflict-detection half of §III.C:

* execute the assigned sub-op **immediately and concurrently** with the
  peer server, write a Result-Record, and answer the client YES/NO
  without waiting for any commitment;
* if the sub-op touches an *active object* of a pending operation,
  block it behind that operation and get an immediate commitment
  launched (locally when we coordinate the pending op, via L-COM when
  we are its participant);
* attach conflict hints (and the completion-rule extensions of
  :mod:`repro.core.hints`) to every response.

The commitment phase lives in :mod:`repro.core.coordinator` /
:mod:`repro.core.participant`; recovery in :mod:`repro.core.recovery`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional, Set

from repro.core.active import ActiveObjectTable, conflict_keys, hint_covers_other
from repro.core.coordinator import CommitManager
from repro.core.participant import ParticipantHalf
from repro.core.records import PendingOp, PendingState, make_result_record
from repro.core.recovery import CxRecovery
from repro.core.triggers import CommitTriggers
from repro.net.message import Message, MessageKind
from repro.protocols.base import ServerRole
from repro.storage.wal import OpId

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.server import MetadataServer


class CxRole(ServerRole):
    """One server's Cx state machine."""

    def __init__(self, server: "MetadataServer", cluster: "Cluster") -> None:
        super().__init__(server, cluster)
        #: Hoisted observability handles (the tracer is fixed at cluster
        #: build time).
        self.tracer = server.tracer
        metrics = server.metrics
        self._m_conflicts = metrics.counter("conflicts")
        self._m_disagreements = metrics.counter("disagreements")
        self._m_unsolicited_acks = metrics.counter("acks.unsolicited")
        self._m_resolicit_aborts = metrics.counter("resolicit.aborted_unknown")
        self._trigger_meters = {
            kind: metrics.counter(f"trigger.{kind}")
            for kind in ("timeout", "threshold")
        }
        #: Executed-but-uncommitted operations known to this server.
        self.pending: Dict[OpId, PendingOp] = {}
        #: Resolved operations: op_id -> {"committed": bool, "errno": ...}.
        self.completed: Dict[OpId, dict] = {}
        self.active = ActiveObjectTable()
        self.commit_mgr = CommitManager(self)
        self.participant = ParticipantHalf(self)
        self.recovery = CxRecovery(self)
        self.triggers = CommitTriggers(
            self.sim,
            launch=self.commit_mgr.launch_all,
            timeout=self.params.commit_timeout,
            threshold=self.params.commit_threshold,
            on_fire=self._on_trigger_fire,
            scan=self._liveness_scan,
            idle=self._trigger_idle,
            scan_period=self.params.vote_retry_timeout,
        )
        #: Op ids currently blocked on this server (duplicate-REQ guard).
        self._blocked_ops: Set[OpId] = set()
        #: Op ids mid-execution (between dispatch and the pending-table
        #: registration): duplicate REQs in this window must be dropped,
        #: not re-executed (double execution corrupts the namespace).
        self._executing: Set[OpId] = set()
        self._redelivery = None  # the liveness scan's one process

    def batch_size(self, n: int) -> int:
        """Wire size of a batched commitment message carrying ``n`` ops."""
        return self.params.msg_base_size + self.params.msg_per_op_size * n

    def _liveness_scan(self) -> None:
        """Timer-fire piggyback: the vote-retry scan, then at most one
        process re-delivering parked decisions and owed RECOVERY-ENDs."""
        self.participant.scan_overdue()
        owed = self.commit_mgr.parked or self.recovery.end_owed
        if owed and not self.server.quiesced and (
            self._redelivery is None or self._redelivery.triggered
        ):
            self._redelivery = self.server.spawn(self._redeliver())

    def _redeliver(self) -> Generator:
        yield from self.commit_mgr.finish_parked()
        yield from self.recovery.send_end(self.recovery.end_owed)

    def _trigger_idle(self) -> bool:
        """True when a timer fire would find nothing to do.

        No pending op, empty lazy queue, nothing parked or owed, no vote
        waiter: ``launch_all`` launches nothing and the liveness scan
        returns at once, so the fire only bumps its counters — and it
        takes a queued event to change any of the five.
        """
        mgr = self.commit_mgr
        return not (
            self.pending or mgr.lazy or mgr.parked or self.recovery.end_owed
            or self.participant.has_vote_waiters()
        )

    def _on_trigger_fire(self, kind: str, fires: int = 1) -> None:
        self._trigger_meters[kind].inc(fires)
        # Idle timeout fires (empty lazy queue) are counted but not
        # traced — they would dominate the event stream.
        pending = len(self.commit_mgr.lazy)
        if pending and self.tracer.enabled:
            self.tracer.event(
                "trigger", self.server.node_id, cat="trigger", kind=kind,
                pending=pending,
            )

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        self.triggers.start()
        self.server.wal.on_full = self._on_log_full

    def flush_now(self) -> None:
        self.commit_mgr.launch_all("flush-now")

    def on_crash(self) -> None:
        super().on_crash()
        self.triggers.stop()
        self.pending.clear()
        self.completed.clear()
        self.active.clear()
        self._blocked_ops.clear()
        self._executing.clear()
        self.commit_mgr.on_crash()
        self.participant.on_crash()
        self.recovery.end_owed = []
        self.recovery.running = False

    # -- dispatch -----------------------------------------------------------------

    def handle(self, msg: Message) -> Optional[Generator]:
        """Dispatch on message kind; only REQ, VOTE and COMMIT-REQ may
        need a generator — everything else is served inline."""
        kind = msg.kind
        if kind is MessageKind.REQ:
            # A duplicate REQ is answered from the pending/completed
            # tables; a fresh one (no side effects so far) executes.
            if self._resend_duplicate(msg, msg.payload["subop"]):
                return None
            return self._handle_req(msg)
        if kind is MessageKind.VOTE:
            return self.participant.handle_vote(msg)
        if kind is MessageKind.COMMIT_REQ:
            return self.participant.handle_decide(msg)
        if kind is MessageKind.L_COM:
            self._handle_lcom(msg)
        elif kind is MessageKind.RECOVERY_BEGIN:
            self.server.quiesce()
            self.server.send_reply(msg, MessageKind.ACK, {})
        elif kind is MessageKind.RECOVERY_END:
            if not self.recovery.running:
                self.server.unquiesce()
            self.server.send_reply(msg, MessageKind.ACK, {})
        elif (kind is MessageKind.ACK or kind is MessageKind.YES
                or kind is MessageKind.NO):
            # A reply whose RPC was already answered (a duplicated
            # COMMIT-REQ acked twice) or forgotten (its deadline expired,
            # or we rebooted) lands here unsolicited.  Decisions and
            # re-votes are idempotent, so it carries nothing: count it.
            self._m_unsolicited_acks.inc()
        elif kind is MessageKind.RESOLICIT:
            self._handle_resolicit(msg)
        else:  # pragma: no cover - protocol error
            raise ValueError(f"Cx server got unexpected {kind}")
        return None

    def _handle_resolicit(self, msg: Message) -> None:
        """A participant's vote-retry timer asks us to resolve its op.

        Idempotent by construction: every branch re-answers from
        durable or in-flight state, never re-decides.

        * completed here → re-deliver the logged decision (the ACK the
          participant sends back lands as an unsolicited ACK, which the
          existing drop-and-count path swallows);
        * pending and decided → the decision is parked; the trigger
          scan owns re-delivery;
        * pending, undecided, not committing → launch the commitment;
        * committing → the in-flight exchange resolves it;
        * in our log but not in the tables (mid-recovery) → stay quiet,
          the participant's backoff re-asks after recovery;
        * truly unknown → our crash lost the op before its Result-Record
          was durable, so no commit can ever have been decided: answer
          an explicit ABORT so the participant can unwedge.
        """
        op_id = msg.payload["op"]
        done = self.completed.get(op_id)
        if done is not None:
            self.server.send(
                msg.src,
                MessageKind.COMMIT_REQ,
                {"decisions": {op_id: done["committed"]}},
            )
            return
        pend = self.pending.get(op_id)
        if pend is not None:
            if pend.decided is not None:
                return
            if pend.state is PendingState.EXECUTED:
                self.commit_mgr.request_immediate(op_id)
            return
        if op_id in self._executing or self.server.wal.records_of(op_id):
            return
        self._m_resolicit_aborts.inc()
        if self.tracer.enabled:
            self.tracer.event(
                "resolicit.abort", self.server.node_id, cat="protocol",
                op_id=op_id, src=msg.src,
            )
        self.server.send(
            msg.src, MessageKind.COMMIT_REQ, {"decisions": {op_id: False}}
        )

    # -- execution phase --------------------------------------------------------------

    def _handle_req(self, msg: Message) -> Generator:
        subop = msg.payload["subop"]
        op_id = subop.op_id
        keys = conflict_keys(subop)
        # A process's own accesses to its pending objects are no
        # conflict: its operations are synchronous, so it already knows
        # their outcomes (paper §III.B's design principle).  Only other
        # processes' pending operations block us.
        owner = (op_id[0], op_id[1])
        holders_of = self.active.holders_of
        while True:
            foreign = [
                h for h in holders_of(keys)
                if (h[0], h[1]) != owner and h != op_id
            ]
            # Disordered conflict, vote-first interleaving: if a commitment
            # VOTE for this very op is already waiting here, the coordinator
            # has ordered it before whatever executed-but-uncommitted op is
            # holding its objects — invalidate the holder(s) and proceed
            # (paper Fig. 3(b) step 4).
            if not foreign or not self.participant.has_vote_waiter(op_id):
                break
            holder_pend = self.pending.get(foreign[-1])
            if not self.participant.can_invalidate(holder_pend):
                break
            self.participant.invalidate(holder_pend)

        if foreign:
            # Conflict: block this sub-op behind the newest pending
            # operation and get every holder committed immediately.
            self._m_conflicts.inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "conflict", self.server.node_id, cat="protocol",
                    op_id=op_id, parent=msg.span_id,
                    blocked_behind=foreign[-1],
                )
            self._blocked_ops.add(op_id)
            msg.payload["conflicted"] = True
            self.active.block(foreign[-1], msg)
            for holder in foreign:
                self.commit_mgr.request_immediate(holder)
            return

        if subop.is_readonly:
            res, read_sid = yield from self.execute_readonly(msg, subop)
            self.server.send(
                msg.src,
                MessageKind.YES if res.ok else MessageKind.NO,
                {
                    "op_id": op_id,
                    "role": subop.role,
                    "ok": res.ok,
                    "errno": res.errno,
                    "value": res.value,
                    "conflicted": msg.payload.get("conflicted", False),
                },
                span_id=read_sid,
            )
            return

        yield from self.execute_now(msg, keys)

    def _resend_duplicate(self, msg: Message, subop) -> bool:
        op_id = subop.op_id
        if op_id in self._executing:
            # Mid-execution window: the first copy is between dispatch
            # and pending-table registration.  Re-executing would apply
            # the op twice; drop the dup, the original answers.
            return True
        pend = self.pending.get(op_id)
        if pend is not None and pend.subop.role == subop.role:
            if pend.reply is not None:
                self.server.send(
                    msg.src, MessageKind.YES if pend.ok else MessageKind.NO,
                    pend.reply_payload(),
                )
            return True
        if op_id in self.completed and not subop.is_readonly:
            done = self.completed[op_id]
            ok = done["committed"] and done["errno"] is None
            self.server.send(
                msg.src,
                MessageKind.YES if ok else MessageKind.NO,
                {
                    "op_id": op_id,
                    "role": subop.role,
                    "ok": ok,
                    "errno": done["errno"],
                    "conflicted": False,
                    "hint": None,
                    "hint_covers_other": False,
                    "saw_commits": (),
                },
            )
            return True
        if op_id in self._blocked_ops:
            return True  # already queued behind a commitment; drop the dup
        return False

    def execute_now(self, msg: Message, keys=None, voted=False) -> Generator:
        """Execute an update sub-op: steps 1–2 of the basic protocol.

        Also used inline by the participant's disordered-conflict path,
        with ``voted``: a VOTE ordered this execution (as does one found
        waiting for it), so nothing may invalidate the op any more.
        ``keys`` lets :meth:`_handle_req` pass the conflict footprint it
        already computed instead of re-deriving it.  Returns the new
        :class:`PendingOp`.
        """
        mp = msg.payload
        subop = mp["subop"]
        op_id = subop.op_id
        self._blocked_ops.discard(op_id)
        # Guard the dispatch→pending window against duplicate REQs
        # (registered before the first yield; dropped again once the
        # pending entry exists and owns duplicate handling).
        self._executing.add(op_id)
        if keys is None:
            keys = conflict_keys(subop)
        cross = subop.role in ("coord", "part")

        # Acquire the conflict footprint *before* any yield: requests
        # dispatched while this execution is mid-flight must see the
        # objects as active (otherwise an invalidation's requeued victim
        # could race past the op that displaced it).
        if cross:
            self.active.register(op_id, keys)

        res, exec_sid = yield from self.execute_update(msg, subop)
        if res.ok:
            self.server.shard.apply_deferred(res.updates)
        elif cross:
            # Failed executions modify nothing: nothing stays active.
            released = self.active.release(op_id, committed=False)
            self.reinject_blocked(released, ordered_after=None)

        other_server = mp.get("other_server")
        record = make_result_record(
            op_id,
            subop,
            res,
            other_server,
            self.params.log_record_size,
        )
        # The pending entry must exist before we block on the log write:
        # a conflicting request arriving in that window must find the
        # holder's state, not a dangling active key.
        pend = PendingOp(
            op_id=op_id,
            subop=subop,
            other_server=other_server,
            result=res,
            record=record,
            hint=mp.get("ordered_after"),
            # Only a cross-server op holds active objects, so only one
            # can ever be invalidated and re-queued.
            req_msg=msg if cross else None,
        )
        if voted or self.participant.has_vote_waiter(op_id):
            # A VOTE is waiting on this very execution: the op is born
            # mid-commitment (see ParticipantHalf.can_invalidate).
            pend.state = PendingState.COMMITTING
        self.pending[op_id] = pend
        self._executing.discard(op_id)
        self.commit_mgr.adopt_pre_request(pend)
        pend.exec_span_id = exec_sid
        # Durable Result-Record before the response; this append blocks
        # when the log is full (Fig. 7(a)'s effect).
        record_sid = yield from self.append_record(record, subop, exec_sid)
        # Result-Record durable: the op may now be voted on (a YES on a
        # volatile record could not be honored after a crash).
        pend.logged = True

        # The ResponseHint block, captured once: a duplicate REQ is
        # answered with the same values, saw_commits included.
        pend.reply = (
            mp.get("conflicted", False),
            mp.get("ordered_after_covers", False),
            tuple(self.active.saw_commits(keys)),
        )
        kind = MessageKind.YES if res.ok else MessageKind.NO
        self.server.send(msg.src, kind, pend.reply_payload(), span_id=record_sid)

        # Post-execution hooks: deferred votes and the lazy queue.
        self.participant.fulfill_vote_waiters(op_id)
        if subop.role in ("coord", "single"):
            self.commit_mgr.enqueue(pend)
        elif pend.immediate_requested:
            # A conflict piled up behind us while we were executing; as
            # a participant we can only ask our coordinator (L-COM).
            self.commit_mgr.request_immediate(op_id)
        return pend

    # -- conflict plumbing ---------------------------------------------------------

    def reinject_blocked(self, msgs, ordered_after: Optional[PendingOp]) -> None:
        """Requeue blocked sub-op requests as fresh arrivals.

        ``ordered_after`` is the just-resolved pending op: released
        requests will execute with hint [that op] (paper Fig. 3); after
        an *invalidation* the holder was not resolved, so the hint
        annotation is cleared instead.
        """
        for msg in msgs:
            if ordered_after is not None:
                msg.payload["ordered_after"] = ordered_after.op_id
                msg.payload["ordered_after_covers"] = hint_covers_other(
                    msg.payload["subop"],
                    msg.payload.get("other_server"),
                    ordered_after.subop,
                    ordered_after.other_server,
                )
            else:
                msg.payload.pop("ordered_after", None)
                msg.payload.pop("ordered_after_covers", None)
            self._blocked_ops.discard(msg.payload["subop"].op_id)
            self.server.inbox.put(msg)

    def _handle_lcom(self, msg: Message) -> None:
        """L-COM: a client (disagreement) or a peer server (conflict at
        the participant) asks us to launch an immediate commitment."""
        op_id = msg.payload["op"]
        all_no_dst = msg.src if msg.payload.get("want_all_no") else None
        if all_no_dst is not None:
            # Client-driven L-COM: the completion rule saw a YES/NO
            # disagreement (paper §III.B step 7b).
            self._m_disagreements.inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "disagreement", self.server.node_id, cat="protocol",
                    op_id=op_id, src=msg.src,
                )
        self.commit_mgr.request_immediate(op_id, all_no_dst=all_no_dst)

    def _on_log_full(self) -> None:
        """Log at capacity: urgently commit to prune (paper §III.D)."""
        self.commit_mgr.launch_all("log-full")
        # Participant-role pendings can only be pruned by their
        # coordinators — ask them.
        for pend in list(self.pending.values()):
            if pend.role == "part" and pend.state is PendingState.EXECUTED:
                self.commit_mgr.request_immediate(pend.op_id)

    # -- recovery entry point -------------------------------------------------------

    def recover(self) -> Generator:
        yield from self.recovery.run()
