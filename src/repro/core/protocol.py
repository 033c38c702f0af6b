"""The CxProtocol plug-in: the client half and the server role.

The client half (paper §III.B steps 1–2 and the completion rule): the
process fans the two sub-ops out **concurrently**, then combines the
*latest* response per role — a server may answer more than once for
the same sub-op (a response can be superseded after an invalidation) —
with the settled-pair rule of :mod:`repro.core.hints`:

* both YES, settled  → operation complete (commitment happens lazily);
* both NO, settled   → operation complete as a clean failure;
* mixed, settled     → disagreement: send L-COM, wait for ALL-NO.

The client driver's retry resends the requests and an L-COM that went
out; the servers' pending and completed tables make that exactly-once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Union

from repro.cluster.client import Call, OpResult, Request
from repro.core.hints import ResponseHint, settled
from repro.core.role import CxRole
from repro.fs.ops import SubOp
from repro.net.message import Message, MessageKind
from repro.protocols.base import Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.server import MetadataServer


class CxProtocol(Protocol):
    """Concurrent execution + lazy batched commitment (the paper's Cx)."""

    name = "cx"
    #: Both sub-ops at once; False sends the participant's first and the
    #: coordinator's once it answered (SE's order, ``cx-serial-exec``).
    concurrent = True

    def make_role(self, server: "MetadataServer", cluster: "Cluster") -> CxRole:
        return CxRole(server, cluster)

    def first_round(self, call: Call) -> List[Request]:
        plan = call.plan
        if plan.is_rename:
            return super().first_round(call)
        coord = _req(call, plan.coord_subop, plan.participant)
        if not plan.cross_server:
            return [coord]
        part = _req(call, plan.part_subop, plan.coordinator)
        return [coord, part] if self.concurrent else [part]

    def combine(self, call: Call, msg: Message) -> Union[OpResult, List[Request], None]:
        plan = call.plan
        if not plan.cross_server or plan.is_rename:
            return OpResult.from_reply(msg)
        p = msg.payload
        op_id = plan.op.op_id
        tracer = call.cluster.tracer
        if msg.kind is MessageKind.ALL_NO:
            # Every successful execution was aborted (step 7b).
            if tracer.enabled:
                tracer.event(
                    "all-no", call.node.node_id, cat="protocol", op_id=op_id,
                    parent=call.op_sid,
                )
            return OpResult(ok=False, errno=p.get("errno"),
                            conflicted=call.conflicted)
        latest = call.latest
        latest[p["role"]] = p
        call.conflicted = call.conflicted or bool(p.get("conflicted"))
        if "coord" not in latest:
            if not self.concurrent and len(call.sent) == 1:
                return [_req(call, plan.coord_subop, plan.participant)]
            return None
        if "part" not in latest:
            return None
        hc = ResponseHint.from_payload(latest["coord"])
        hp = ResponseHint.from_payload(latest["part"])
        if not settled(hc, hp):
            return None  # a response may still be superseded; keep waiting
        ok_c = latest["coord"]["ok"]
        ok_p = latest["part"]["ok"]
        if ok_c and ok_p:
            return OpResult(ok=True, conflicted=call.conflicted)
        if not ok_c and not ok_p:
            errno = latest["coord"]["errno"] or latest["part"]["errno"]
            return OpResult(ok=False, errno=errno, conflicted=call.conflicted)
        # Disagreement: ask the coordinator for an immediate commitment
        # (once); the ALL-NO closes the operation.
        if any(kind is MessageKind.L_COM for _dst, kind, _p, _s in call.sent):
            return None
        if tracer.enabled:
            tracer.event(
                "client-lcom", call.node.node_id, cat="protocol",
                op_id=op_id, parent=call.op_sid, ok_coord=ok_c, ok_part=ok_p,
            )
        return [call.request(
            plan.coordinator, MessageKind.L_COM,
            {"op": op_id, "want_all_no": True},
        )]


def _req(call: Call, subop: SubOp, other: int) -> Request:
    """The REQ carrying ``subop``, naming the other server."""
    return call.request(subop.server, MessageKind.REQ, {
        "subop": subop, "op_id": subop.op_id, "other_server": other,
    })
