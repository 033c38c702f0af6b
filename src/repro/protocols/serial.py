"""SE — the Serially-Execution protocol (plain OFS baseline).

Figure 1(b) of the paper: "all sub-ops are serially and synchronously
executed on the affected servers: the client first instructs the
participant to execute its sub-ops; if the participant executes its
sub-ops successfully, the client then asks the coordinator ... If the
coordinator fails to perform the assigned sub-op, the process withdraws
the former sub-ops by sending a CLEAR message to the participant."

Persistence discipline: every update sub-op writes its modified
objects synchronously into the KV store (BDB) before responding — the
per-operation synchronization Cx removes.

Known weakness the paper calls out (and our failure tests reproduce):
if the *client* dies between the participant's success and the CLEAR,
orphan objects remain and atomicity is violated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional, Union

from repro.cluster.client import Call, OpResult, Request
from repro.fs.namespace import ExecResult
from repro.fs.ops import SubOp
from repro.net.message import Message, MessageKind
from repro.obs.tracer import PHASE_WRITEBACK
from repro.protocols.base import Protocol, ServerRole

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.server import MetadataServer


class SerialRole(ServerRole):
    """Server side of SE: execute + sync write-back, or CLEAR (undo)."""

    def handle(self, msg: Message) -> Generator:
        if msg.kind is MessageKind.REQ:
            yield from self._handle_req(msg)
        elif msg.kind is MessageKind.CLEAR:
            yield from self._handle_clear(msg)
        else:  # pragma: no cover - protocol error
            self.reject(msg)

    def _handle_req(self, msg: Message) -> Generator:
        subop = msg.payload["subop"]
        if subop.is_readonly:
            res, sid = yield from self.execute_readonly(msg, subop)
        else:
            res, sid = yield from self.execute_update(msg, subop)
            if res.ok:
                sid = yield from self.persist(subop, res, sid)
        self.reply_result(msg, res, span_id=sid)

    def persist(self, subop: SubOp, res: ExecResult, sid: Optional[int]) -> Generator:
        """Make an executed update durable before the reply: OFS's per-op
        synchronous write-back, the client-visible cost Cx's deferred
        write-back removes.  Returns the span id the reply chains on."""
        tracer = self.server.tracer
        span = (
            tracer.begin(
                "sync-writeback", self.server.node_id, op_id=subop.op_id,
                phase=PHASE_WRITEBACK, parent=sid, role=subop.role,
            )
            if tracer.enabled else None
        )
        yield from self.write_through(res.updates)
        if span is None:
            return sid
        span.end()
        return span.span_id

    def _handle_clear(self, msg: Message) -> Generator:
        """Withdraw a previously executed sub-op (value-level undo)."""
        yield self.sim.timeout_h(self.params.cpu_subop)
        yield from self.write_through(msg.payload["undo"])
        self.answer(msg, MessageKind.RESP, {"ok": True})


#: The rounds of a cross-server SE op: the participant's sub-op, then
#: the coordinator's, then the CLEAR that withdraws the first.
PART_ROUND, COORD_ROUND, CLEAR_ROUND = 0, 1, 2


class SerialProtocol(Protocol):
    """Plain OFS: serial execution, synchronous write-back."""

    name = "ofs"

    def make_role(self, server: "MetadataServer", cluster: "Cluster") -> SerialRole:
        return SerialRole(server, cluster)

    def first_round(self, call: Call) -> List[Request]:
        plan = call.plan
        if plan.is_rename:
            return super().first_round(call)
        # participant first when cross-server
        server, subop = ((plan.participant, plan.part_subop) if plan.cross_server
                         else (plan.coordinator, plan.coord_subop))
        return [call.request_once(server, MessageKind.REQ, {"subop": subop})]

    def combine(self, call: Call, msg: Message) -> Union[OpResult, List[Request], None]:
        plan = call.plan
        if not plan.cross_server or plan.is_rename:
            return OpResult.from_reply(msg)
        p = msg.payload
        step = p["round"]
        if step in call.latest:
            return None  # a resend, answered again from the slot
        call.latest[step] = msg
        if step == PART_ROUND:
            if not p["ok"]:
                return OpResult.from_reply(msg)
            # then the coordinator (chained after the participant's
            # reply: the serial dependency the span DAG must show)
            return [call.request_once(plan.coordinator, MessageKind.REQ,
                                      {"subop": plan.coord_subop}, COORD_ROUND,
                                      after=msg)]
        if step == COORD_ROUND:
            if p["ok"]:
                return OpResult.from_reply(msg)
            # coordinator failed: withdraw the participant's sub-op
            undo = call.latest[PART_ROUND].payload["undo"]
            return [call.request_once(plan.participant, MessageKind.CLEAR,
                                      {"undo": undo}, CLEAR_ROUND, after=msg)]
        return OpResult.from_reply(call.latest[COORD_ROUND])
