"""Ablation variants of Cx: isolate its two mechanisms.

Cx's win combines two independent mechanisms:

1. **Concurrent execution** — the client fans both sub-ops out at once
   instead of serializing two round trips;
2. **Lazy batched commitment** — Result-Records + deferred write-back,
   with the VOTE/COMMIT/ACK exchange amortized over batches.

These protocol variants turn one mechanism off at a time, so the
ablation benchmark (`benchmarks/test_ablation_mechanisms.py`) can
attribute the measured gain:

* :class:`CxSerialExecProtocol` — sub-ops execute **serially**
  (participant first, like SE), but servers still use Cx's lazy
  batched commitment.  Gain over OFS ≈ the batching contribution.
* Cx with ``commit_threshold=1`` (no new class needed) — concurrent
  execution, but every operation commits **immediately**.  Gain over
  OFS ≈ the concurrency contribution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.cluster.client import ClientProcess, OpResult
from repro.core.client import cx_client_perform
from repro.core.protocol import CxProtocol
from repro.fs.ops import OpPlan
from repro.net.message import MessageKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster


class CxSerialExecProtocol(CxProtocol):
    """Cx's commitment machinery with SE's serial execution order.

    The client sends the participant's sub-op, waits, then sends the
    coordinator's — so each cross-server operation pays both round
    trips back to back, exactly like OFS, while the servers still log
    Result-Records, defer write-back, and batch commitments.
    """

    name = "cx-serial-exec"

    def client_perform(
        self, cluster: "Cluster", process: ClientProcess, plan: OpPlan,
        op_sid: Optional[int],
    ) -> Generator:
        if not plan.cross_server:
            return (yield from cx_client_perform(cluster, process, plan, op_sid))
        node = process.node
        op_id = plan.op.op_id
        channel = node.register_op(op_id)
        try:
            # Serial: participant first (SE's order), then coordinator.
            latest = {}
            conflicted = False
            lcom_sent = False
            for server, subop, other in (
                (plan.participant, plan.part_subop, plan.coordinator),
                (plan.coordinator, plan.coord_subop, plan.participant),
            ):
                node.send(
                    cluster.server_id(server),
                    MessageKind.REQ,
                    {"subop": subop, "op_id": op_id, "other_server": other},
                    span_id=op_sid,
                )
                msg = yield channel.get_h()
                p = msg.payload
                conflicted = conflicted or bool(p.get("conflicted"))
                latest[p["role"]] = p

            # Same agreement rule as Cx; serial arrival means responses
            # cannot be superseded (each executed after the previous
            # committed or completed), so hints need no settling loop.
            while True:
                ok_c = latest["coord"]["ok"]
                ok_p = latest["part"]["ok"]
                if ok_c and ok_p:
                    return OpResult(ok=True, conflicted=conflicted)
                if not ok_c and not ok_p:
                    errno = latest["coord"]["errno"] or latest["part"]["errno"]
                    return OpResult(ok=False, errno=errno, conflicted=conflicted)
                if not lcom_sent:
                    lcom_sent = True
                    node.send(
                        cluster.server_id(plan.coordinator),
                        MessageKind.L_COM,
                        {"op": op_id, "want_all_no": True},
                        span_id=op_sid,
                    )
                msg = yield channel.get_h()
                p = msg.payload
                if msg.kind is MessageKind.ALL_NO:
                    return OpResult(ok=False, errno=p.get("errno"),
                                    conflicted=conflicted)
                latest[p["role"]] = p
        finally:
            node.unregister_op(op_id)
