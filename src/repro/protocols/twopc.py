"""2PC — the Two-Phase-Commit protocol (Fig. 1(a)).

"Upon receiving a request from a client, the coordinator first
initiates the first phase by sending a VOTE message to the participant
... The coordinator collects the vote message and executes its sub-op,
and then starts the second phase ... In the course of the execution,
the servers record an operation log before sending a message out."

This is the eager, fully-synchronous baseline: every phase transition
pays a synchronous log write and a server-to-server round trip before
the client hears anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator

from repro.fs.ops import OpPlan
from repro.net.message import Message, MessageKind
from repro.protocols.base import Protocol, ServerRole
from repro.storage.wal import LogRecord, OpId

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.server import MetadataServer


class TwoPCRole(ServerRole):
    """Coordinator- and participant-side 2PC handlers."""

    def __init__(self, server: "MetadataServer", cluster: "Cluster") -> None:
        super().__init__(server, cluster)
        #: Participant-side: executed-but-undecided transactions.
        self._pending: Dict[OpId, object] = {}

    def on_crash(self) -> None:
        super().on_crash()
        self._pending.clear()

    def handle(self, msg: Message) -> Generator:
        if msg.kind is MessageKind.REQ:
            plan = msg.payload["plan"]
            if plan.cross_server:
                yield from self._coordinate(msg, plan)
            else:
                yield from self.serve_local(msg, plan.coord_subop)
        elif msg.kind is MessageKind.VOTE:
            yield from self._participant_vote(msg)
        elif msg.kind in (MessageKind.COMMIT_REQ, MessageKind.ABORT_REQ):
            yield from self._participant_decide(msg)
        else:  # pragma: no cover - protocol error
            self.reject(msg)

    def _append_log(self, op_id: OpId, rtype: str, payload=None):
        """Wait for one synchronous 2PC log record."""
        return self.server.wal.append_h(
            LogRecord(op_id, rtype, payload, size=self.params.log_record_size)
        )

    # -- coordinator ------------------------------------------------------------

    def _coordinate(self, msg: Message, plan: OpPlan) -> Generator:
        coord_subop = plan.coord_subop
        op_id = coord_subop.op_id
        part_node = self.cluster.server_id(plan.participant)

        # Phase 1: log, then VOTE to the participant.
        yield self._append_log(op_id, "BEGIN")
        vote = yield self.server.request(
            part_node, MessageKind.VOTE,
            {"subop": plan.part_subop, "txn": op_id},
        )
        part_ok = vote.payload["ok"]

        # Execute the local sub-op after collecting the vote (Fig. 1(a)).
        res, sid = yield from self.execute_update(msg, coord_subop)
        yield self._append_log(op_id, "RESULT", {"ok": res.ok})

        if res.ok and part_ok:
            self.decided(msg)
            yield from self.write_through(res.updates)
            yield self._append_log(op_id, "COMMIT")
            yield from self.deliver_decision(
                part_node, MessageKind.COMMIT_REQ, {"txn": op_id}
            )
            yield self._append_log(op_id, "COMPLETE")
            self.server.wal.prune_op(op_id)
            self.reply_result(msg, res, span_id=sid)
            return

        # Abort path.
        yield self._append_log(op_id, "ABORT")
        if part_ok:
            yield from self.deliver_decision(
                part_node, MessageKind.ABORT_REQ, {"txn": op_id}
            )
        self.server.wal.prune_op(op_id)
        errno = res.errno if not res.ok else vote.payload.get("errno")
        self.answer(
            msg, MessageKind.RESP,
            {"ok": False, "errno": errno, "value": None}, span_id=sid,
        )

    # -- participant ----------------------------------------------------------------

    def _participant_vote(self, msg: Message) -> Generator:
        op_id = msg.payload["txn"]
        res, sid = yield from self.execute_update(msg, msg.payload["subop"])
        yield self._append_log(op_id, "RESULT", {"ok": res.ok})
        if res.ok:
            self._pending[op_id] = res
        self.server.send_reply(
            msg,
            MessageKind.YES if res.ok else MessageKind.NO,
            {"ok": res.ok, "errno": res.errno},
            span_id=sid,
        )

    def _participant_decide(self, msg: Message) -> Generator:
        op_id = msg.payload["txn"]
        res = self._pending.pop(op_id, None)
        if msg.kind is MessageKind.COMMIT_REQ and res is not None:
            yield from self.write_through(res.updates)
            yield self._append_log(op_id, "COMMIT")
        else:
            yield self._append_log(op_id, "ABORT")
        self.server.wal.prune_op(op_id)
        self.server.send_reply(msg, MessageKind.ACK, {"txn": op_id})


class TwoPCProtocol(Protocol):
    """Distributed-transaction baseline: correct but eager and slow."""

    name = "2pc"

    def make_role(self, server: "MetadataServer", cluster: "Cluster") -> TwoPCRole:
        return TwoPCRole(server, cluster)
