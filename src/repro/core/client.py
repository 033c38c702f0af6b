"""Cx client driver (paper §III.B step 1–2 and the completion rule).

The process fans the two sub-ops out **concurrently**, then collects
responses on its per-operation channel.  A server may answer more than
once for the same sub-op (a response can be superseded after an
invalidation), so the driver keeps the *latest* response per role and
applies the settled-pair rule of :mod:`repro.core.hints`:

* both YES, settled  → operation complete (commitment happens lazily);
* both NO, settled   → operation complete as a clean failure;
* mixed, settled     → disagreement: send L-COM, wait for ALL-NO.

An optional retry timeout (``SimParams.client_retry_timeout``) makes
the driver resilient to server crashes: requests are resent and the
server-side duplicate tables guarantee exactly-once execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional

from repro.cluster.client import ClientProcess, OpResult
from repro.core.hints import ResponseHint, settled
from repro.fs.ops import OpPlan
from repro.net.message import Message, MessageKind
from repro.protocols.base import result_from_resp

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster


def cx_client_perform(
    cluster: "Cluster", process: ClientProcess, plan: OpPlan,
    op_sid: Optional[int],
) -> Generator:
    node = process.node
    sim = cluster.sim
    op_id = plan.op.op_id
    retry_timeout = cluster.params.client_retry_timeout
    channel = node.register_op(op_id)
    tracer = cluster.tracer

    def send_requests() -> None:
        node.send(
            cluster.server_id(plan.coordinator),
            MessageKind.REQ,
            {
                "subop": plan.coord_subop,
                "op_id": op_id,
                "other_server": plan.participant,
            },
            span_id=op_sid,
        )
        if plan.cross_server:
            node.send(
                cluster.server_id(plan.participant),
                MessageKind.REQ,
                {
                    "subop": plan.part_subop,
                    "op_id": op_id,
                    "other_server": plan.coordinator,
                },
                span_id=op_sid,
            )

    # Mutable cell shared with receive(): whether an L-COM went out.  A
    # retry must re-drive the whole conversation the client is waiting
    # on — an L-COM whose ALL-NO died with a crashed coordinator would
    # otherwise never be re-asked and the operation would wedge.
    state = {"lcom": False}

    def send_lcom():
        node.send(
            cluster.server_id(plan.coordinator),
            MessageKind.L_COM,
            {"op": op_id, "want_all_no": True},
            span_id=op_sid,
        )

    def receive():
        """Get the next response, resending requests on timeout."""
        pending_get = channel.get()
        while True:
            winner, value = yield sim.any_of(
                [pending_get, sim.timeout(retry_timeout)]
            )
            if winner is pending_get:
                return value
            send_requests()  # duplicate REQs are deduplicated server-side
            if state["lcom"]:
                send_lcom()  # idempotent at the coordinator

    try:
        send_requests()

        if not plan.cross_server:
            # No-retry hot path inlined: ``yield from receive()`` costs
            # a generator object and frame per response.
            if retry_timeout is None:
                msg: Message = yield channel.get_h()
            else:
                msg = yield from receive()
            return result_from_resp(msg)

        latest: Dict[str, dict] = {}
        conflicted = False
        while True:
            if retry_timeout is None:
                msg = yield channel.get_h()
            else:
                msg = yield from receive()
            p = msg.payload
            if msg.kind is MessageKind.ALL_NO:
                # Every successful execution was aborted (step 7b).
                if tracer.enabled:
                    tracer.event(
                        "all-no", node.node_id, cat="protocol", op_id=op_id,
                        parent=op_sid,
                    )
                return OpResult(ok=False, errno=p.get("errno"), conflicted=conflicted)
            latest[p["role"]] = p
            conflicted = conflicted or bool(p.get("conflicted"))
            if "coord" not in latest or "part" not in latest:
                continue
            hc = ResponseHint.from_payload(latest["coord"])
            hp = ResponseHint.from_payload(latest["part"])
            if not settled(hc, hp):
                continue  # a response may still be superseded; keep waiting
            ok_c = latest["coord"]["ok"]
            ok_p = latest["part"]["ok"]
            if ok_c and ok_p:
                return OpResult(ok=True, conflicted=conflicted)
            if not ok_c and not ok_p:
                errno = latest["coord"]["errno"] or latest["part"]["errno"]
                return OpResult(ok=False, errno=errno, conflicted=conflicted)
            # Disagreement: ask the coordinator for an immediate
            # commitment; the ALL-NO closes the operation.
            if not state["lcom"]:
                state["lcom"] = True
                if tracer.enabled:
                    tracer.event(
                        "client-lcom", node.node_id, cat="protocol",
                        op_id=op_id, parent=op_sid, ok_coord=ok_c, ok_part=ok_p,
                    )
                send_lcom()
    finally:
        node.unregister_op(op_id)
