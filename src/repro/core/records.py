"""Cx log records and pending-operation bookkeeping (paper §III.A).

Three record families, each tagged with the operation id that owns it:

* **Result-Record** — "the result of corresponding sub-operation at
  each server".  Ours additionally carries the sub-op, the computed
  updates and their undo so a rebooted server can redo/rollback from
  the log alone.
* **Commit-Record / Abort-Record** — the commitment decision.  For the
  participant this is terminal (its records become prunable).
* **Complete-Record** — coordinator only; the whole operation is done
  and all its records are prunable.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Tuple

from repro.core.active import conflict_keys
from repro.fs.namespace import ExecResult
from repro.fs.ops import SubOp
from repro.net.message import Message
from repro.storage.wal import LogRecord, OpId


class RecordType(str, enum.Enum):
    RESULT = "RESULT"
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    COMPLETE = "COMPLETE"


class PendingState(str, enum.Enum):
    #: Executed and logged; commitment not yet launched.
    EXECUTED = "executed"
    #: A commitment (lazy or immediate) is in flight.
    COMMITTING = "committing"
    #: Commitment finished; kept only in the completed side-table.
    DONE = "done"


def make_result_record(
    op_id: OpId,
    subop: SubOp,
    res: ExecResult,
    other_server: Optional[int],
    record_size: int,
) -> LogRecord:
    """Build the Result-Record carrying redo/undo info for recovery."""
    return LogRecord(
        op_id,
        RecordType.RESULT.value,
        payload={
            "ok": res.ok,
            "errno": res.errno,
            "subop": subop,
            "updates": list(res.updates),
            "undo": list(res.undo),
            "other_server": other_server,
        },
        size=record_size * max(1, len(res.updates)),
    )


def log_state(
    records: List[LogRecord],
) -> Tuple[Optional[LogRecord], Optional[bool], bool]:
    """The commitment step one operation's surviving records prove.

    Returns ``(result_record, decided, complete)``: the valid
    Result-Record (None when only invalidated or decision records are
    left), the logged decision (None while undecided) and whether the
    Complete-Record made it to disk.
    """
    valid = [r for r in records if not r.invalid]
    types = {r.rtype for r in valid}
    result_rec = next(
        (r for r in valid if r.rtype == RecordType.RESULT.value), None
    )
    if RecordType.COMMIT.value in types:
        decided = True
    else:
        decided = False if RecordType.ABORT.value in types else None
    return result_rec, decided, RecordType.COMPLETE.value in types


class PendingOp:
    """One executed-but-uncommitted operation on one server.

    ``__slots__`` class (not a dataclass): one is built per executed
    sub-op, and its attributes sit on the protocol's hottest paths.
    """

    __slots__ = (
        "op_id", "subop", "role", "other_server", "result", "record",
        "keys", "state", "hint", "req_msg", "all_no_dst",
        "last_response", "waiters", "lcom_sent", "immediate_requested",
        "vote_errno", "enqueued_at", "commit_span", "exec_span_id",
        "logged", "decided", "resolicit_at", "resolicit_backoff",
    )

    def __init__(
        self,
        op_id: OpId,
        subop: SubOp,
        role: str,
        other_server: Optional[int],
        result: ExecResult,
        record: LogRecord,
        keys: Optional[List[Any]] = None,
        hint: Optional[OpId] = None,
        req_msg: Optional[Message] = None,
    ) -> None:
        self.op_id = op_id
        self.subop = subop
        #: "coord" (we own the dirent / drive commitment), "part", or
        #: "single" (single-server operation: local commitment only).
        self.role = role
        #: The peer server index (participant for coord-role,
        #: coordinator for part-role, None for single).
        self.other_server = other_server
        self.result = result
        self.record = record
        #: Conflict keys registered in the active-object table.
        self.keys = [] if keys is None else keys
        self.state = PendingState.EXECUTED
        #: Hint attached to the execution response ([null] or [op_id']).
        self.hint = hint
        #: The original client REQ (kept so a re-queued/invalidated
        #: sub-op can be re-dispatched and re-answered).
        self.req_msg = req_msg
        #: Node id of a client waiting for ALL-NO after an L-COM.
        self.all_no_dst: Optional[str] = None
        #: The last response ``(kind, payload)`` sent for this op
        #: (resent on duplicate REQs after a client-side retry).
        self.last_response: Optional[Tuple[Any, Dict[str, Any]]] = None
        #: Events to succeed when this op's commitment completes.
        self.waiters: List[Any] = []
        #: Participant-role only: an L-COM for this op was already sent
        #: to the coordinator (avoid spamming on repeated conflicts).
        self.lcom_sent = False
        #: An immediate commitment was requested before this op executed
        #: here (pre-request); honored as soon as it is enqueued.
        self.immediate_requested = False
        #: Coordinator-role only: the participant's errno from its vote.
        self.vote_errno: Optional[str] = None
        #: Virtual time this op entered the lazy queue (feeds the
        #: commitment-latency histogram).
        self.enqueued_at: Optional[float] = None
        #: Open tracing span for the in-flight commitment on this server
        #: (:class:`repro.obs.tracer.Span`; None without a tracer).
        self.commit_span: Any = None
        #: Span id of this op's execution span here (the causal parent
        #: of its eventual commitment; None without a tracer).
        self.exec_span_id: Optional[int] = None
        #: True once the Result-Record is durable.  A participant may
        #: only vote on durable results (a YES whose record is still in
        #: flight could not be honored after a crash).
        self.logged = False
        #: Coordinator-role only: the logged commitment decision, set
        #: the moment the Commit/Abort record is appended.  Once set,
        #: retry paths must re-deliver this decision — never re-vote.
        self.decided: Optional[bool] = None
        #: Participant-role only: virtual time of the next re-solicit
        #: toward the coordinator (armed by the trigger scan).
        self.resolicit_at: Optional[float] = None
        #: Current re-solicit backoff interval (doubles per retry, up
        #: to ``vote_retry_timeout * vote_retry_backoff_cap``).
        self.resolicit_backoff: Optional[float] = None

    @classmethod
    def from_record(cls, record: LogRecord) -> "PendingOp":
        """Rebuild the pending entry of a sub-op from its durable
        Result-Record — how every operation re-enters the commitment
        after a crash."""
        payload = record.payload
        subop = payload["subop"]
        res = ExecResult(
            ok=payload["ok"],
            errno=payload["errno"],
            updates=list(payload["updates"]),
            undo=list(payload["undo"]),
        )
        cross = subop.role in ("coord", "part")
        pend = cls(
            record.op_id, subop, subop.role, payload["other_server"], res,
            record, keys=conflict_keys(subop) if res.ok and cross else [],
        )
        pend.logged = True
        return pend

    def __repr__(self) -> str:
        return (
            f"<PendingOp {self.op_id!r} role={self.role!r} "
            f"state={self.state!r}>"
        )

    @property
    def ok(self) -> bool:
        return self.result.ok
