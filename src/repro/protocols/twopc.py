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

from repro.cluster.client import ClientProcess
from repro.fs.ops import OpPlan
from repro.net.message import Message, MessageKind
from repro.protocols.base import Protocol, ServerRole, result_from_resp
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
            yield from self._coordinate(msg)
        elif msg.kind is MessageKind.VOTE:
            yield from self._participant_vote(msg)
        elif msg.kind in (MessageKind.COMMIT_REQ, MessageKind.ABORT_REQ):
            yield from self._participant_decide(msg)
        else:  # pragma: no cover - protocol error
            self.reject(msg)

    # -- coordinator ------------------------------------------------------------

    def _coordinate(self, msg: Message) -> Generator:
        coord_subop = msg.payload["subop"]
        part_subop = msg.payload.get("part_subop")
        participant = msg.payload.get("participant")

        if coord_subop.is_readonly:
            res = yield from self.execute_readonly(coord_subop)
            self.reply_result(msg, res)
            return

        if part_subop is None:
            # Single-server operation: local execute + sync write-back.
            yield self.sim.timeout(self.params.cpu_subop)
            res = self.server.shard.execute(coord_subop, self.sim.now)
            if res.ok:
                events = self.server.shard.apply_sync(res.updates)
                if events:
                    yield self.sim.all_of(events)
            self.reply_result(msg, res)
            return

        op_id = coord_subop.op_id
        wal = self.server.wal
        part_node = self.cluster.server_id(participant)

        # Phase 1: log, then VOTE to the participant.
        yield wal.append_h(LogRecord(op_id, "BEGIN", size=self.params.log_record_size))
        vote = yield self.server.request(
            part_node, MessageKind.VOTE, {"subop": part_subop, "txn": op_id}
        )
        part_ok = vote.payload["ok"]

        # Execute the local sub-op after collecting the vote (Fig. 1(a)).
        yield self.sim.timeout(self.params.cpu_subop)
        res = self.server.shard.execute(coord_subop, self.sim.now)
        yield wal.append_h(
            LogRecord(op_id, "RESULT", {"ok": res.ok}, size=self.params.log_record_size)
        )

        if res.ok and part_ok:
            events = self.server.shard.apply_sync(res.updates)
            if events:
                yield self.sim.all_of(events)
            yield wal.append_h(LogRecord(op_id, "COMMIT", size=self.params.log_record_size))
            ack = yield self.server.request(
                part_node, MessageKind.COMMIT_REQ, {"txn": op_id}
            )
            assert ack.kind is MessageKind.ACK
            yield wal.append_h(
                LogRecord(op_id, "COMPLETE", size=self.params.log_record_size)
            )
            wal.prune_op(op_id)
            self.reply_result(msg, res)
            return

        # Abort path.
        yield wal.append_h(LogRecord(op_id, "ABORT", size=self.params.log_record_size))
        if part_ok:
            ack = yield self.server.request(
                part_node, MessageKind.ABORT_REQ, {"txn": op_id}
            )
            assert ack.kind is MessageKind.ACK
        wal.prune_op(op_id)
        errno = res.errno if not res.ok else vote.payload.get("errno")
        self.server.send_reply(
            msg, MessageKind.RESP, {"ok": False, "errno": errno, "value": None}
        )

    # -- participant ----------------------------------------------------------------

    def _participant_vote(self, msg: Message) -> Generator:
        subop = msg.payload["subop"]
        op_id = msg.payload["txn"]
        yield self.sim.timeout(self.params.cpu_subop)
        res = self.server.shard.execute(subop, self.sim.now)
        yield self.server.wal.append_h(
            LogRecord(op_id, "RESULT", {"ok": res.ok}, size=self.params.log_record_size)
        )
        if res.ok:
            self._pending[op_id] = res
        self.server.send_reply(
            msg,
            MessageKind.YES if res.ok else MessageKind.NO,
            {"ok": res.ok, "errno": res.errno},
        )

    def _participant_decide(self, msg: Message) -> Generator:
        op_id = msg.payload["txn"]
        res = self._pending.pop(op_id, None)
        if msg.kind is MessageKind.COMMIT_REQ and res is not None:
            events = self.server.shard.apply_sync(res.updates)
            if events:
                yield self.sim.all_of(events)
            yield self.server.wal.append_h(
                LogRecord(op_id, "COMMIT", size=self.params.log_record_size)
            )
        else:
            yield self.server.wal.append_h(
                LogRecord(op_id, "ABORT", size=self.params.log_record_size)
            )
        self.server.wal.prune_op(op_id)
        self.server.send_reply(msg, MessageKind.ACK, {"txn": op_id})


class TwoPCProtocol(Protocol):
    """Distributed-transaction baseline: correct but eager and slow."""

    name = "2pc"

    def make_role(self, server: "MetadataServer", cluster: "Cluster") -> TwoPCRole:
        return TwoPCRole(server, cluster)

    def client_perform(
        self, cluster: "Cluster", process: ClientProcess, plan: OpPlan
    ) -> Generator:
        payload = {"subop": plan.coord_subop}
        if plan.cross_server:
            payload["part_subop"] = plan.part_subop
            payload["participant"] = plan.participant
        resp = yield process.node.request(
            cluster.server_id(plan.coordinator), MessageKind.REQ, payload
        )
        return result_from_resp(resp)
