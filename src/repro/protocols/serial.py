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

from typing import TYPE_CHECKING, Generator, Optional

from repro.cluster.client import ClientProcess
from repro.fs.namespace import ExecResult
from repro.fs.ops import OpPlan, SubOp
from repro.net.message import Message, MessageKind
from repro.obs.tracer import PHASE_WRITEBACK
from repro.protocols.base import Protocol, ServerRole, result_from_resp

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
        self.server.send_reply(msg, MessageKind.RESP, {"ok": True})


class SerialProtocol(Protocol):
    """Plain OFS: serial execution, synchronous write-back."""

    name = "ofs"

    def make_role(self, server: "MetadataServer", cluster: "Cluster") -> SerialRole:
        return SerialRole(server, cluster)

    def client_perform(
        self, cluster: "Cluster", process: ClientProcess, plan: OpPlan,
        op_sid: Optional[int],
    ) -> Generator:
        node = process.node
        op_id = plan.op.op_id
        if not plan.cross_server:
            resp = yield node.request(
                cluster.server_id(plan.coordinator),
                MessageKind.REQ,
                {"subop": plan.coord_subop, "op_id": op_id},
                span_id=op_sid,
            )
            return result_from_resp(resp)

        # 1. participant first
        resp_p = yield node.request(
            cluster.server_id(plan.participant),
            MessageKind.REQ,
            {"subop": plan.part_subop, "op_id": op_id},
            span_id=op_sid,
        )
        if not resp_p.payload["ok"]:
            return result_from_resp(resp_p)

        # 2. then the coordinator (chained after the participant's
        # reply: the serial dependency the span DAG must show)
        resp_c = yield node.request(
            cluster.server_id(plan.coordinator),
            MessageKind.REQ,
            {"subop": plan.coord_subop, "op_id": op_id},
            span_id=resp_p.span_id if op_sid is not None else None,
        )
        if resp_c.payload["ok"]:
            return result_from_resp(resp_c)

        # 3. coordinator failed: withdraw the participant's sub-op
        yield node.request(
            cluster.server_id(plan.participant),
            MessageKind.CLEAR,
            {"undo": resp_p.payload["undo"], "op_id": op_id},
            span_id=resp_c.span_id if op_sid is not None else None,
        )
        return result_from_resp(resp_c)
