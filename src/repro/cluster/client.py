"""Client machines and client processes.

A :class:`ClientNode` is one load-generating machine; it hosts several
:class:`ClientProcess` es (the paper's Metarates runs use 8 per client).
Each process issues metadata operations *synchronously* — the next
operation starts only after the previous one completed from the
process's perspective — which is the consistency baseline Cx's design
leans on (paper §III.B: "the metadata operations of a process are
performed synchronously").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.fs.ops import FileOperation
from repro.net.message import Message
from repro.net.network import Network, Node
from repro.obs.tracer import PHASE_CLIENT
from repro.sim import Simulator, Store
from repro.storage.wal import OpId

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster


@dataclass
class OpResult:
    """What a client process sees for one completed operation."""

    ok: bool
    errno: Optional[str] = None
    value: object = None
    #: True when the operation was involved in a conflict (its response
    #: was delayed by an immediate commitment or superseded by an
    #: invalidation) — used to measure the paper's conflict ratio.
    conflicted: bool = False


class ClientNode(Node):
    """A client machine: routes per-operation server responses.

    Cx servers can send *multiple* responses for one sub-op request (a
    response may be superseded after an invalidation), so plain
    request/response matching is not enough; responses carry the
    operation id and are routed to a per-operation channel.
    """

    def __init__(self, sim: Simulator, network: Network, client_id: int) -> None:
        super().__init__(sim, network, f"client{client_id}")
        self.client_id = client_id
        self._op_channels: Dict[OpId, Store] = {}

    def register_op(self, op_id: OpId) -> Store:
        ch = self._op_channels[op_id] = Store(self.sim)
        return ch

    def unregister_op(self, op_id: OpId) -> None:
        self._op_channels.pop(op_id, None)
        self._deadlines.pop(op_id, None)

    def deliver(self, msg: Message) -> None:
        if self.crashed:
            return
        # RPC-style replies take precedence; everything else carrying an
        # operation id goes to that operation's channel.
        if msg.reply_to is not None and msg.reply_to in self._pending_rpcs:
            super().deliver(msg)
            return
        op_id = msg.payload.get("op_id")
        if op_id is not None and op_id in self._op_channels:
            self._op_channels[op_id].put(msg)
            return
        super().deliver(msg)


class ClientProcess:
    """One application process on a client machine."""

    def __init__(self, cluster: "Cluster", node: ClientNode, proc_id: int) -> None:
        self.cluster = cluster
        self.node = node
        self.proc_id = proc_id
        self._next_seq = 0

    def new_op_id(self) -> OpId:
        """(client id, process id, sequence number) — paper §III.A."""
        self._next_seq += 1
        return (self.node.client_id, self.proc_id, self._next_seq)

    def perform(self, op: FileOperation):
        """Generator: run one operation through the cluster's protocol.

        Opens the op's ``client-op`` span — the window the critical-path
        analyzer partitions — around the protocol's ``client_perform``.
        Returns the :class:`OpResult`; also records metrics.
        """
        cluster = self.cluster
        sim = cluster.sim
        start = sim.now
        plan = cluster.plan(op)
        yield sim.timeout_h(cluster.params.cpu_client_op)
        if plan.is_rename:
            from repro.protocols.base import rename_client_perform as drive
        else:
            drive = cluster.protocol.client_perform
        tracer = cluster.tracer
        span = (
            tracer.begin(
                "client-op", self.node.node_id, op_id=op.op_id,
                phase=PHASE_CLIENT, op_type=op.op_type.value,
                cross=plan.cross_server,
            )
            if tracer.enabled and tracer.sampled(op.op_id) else None
        )
        try:
            result: OpResult = yield from drive(
                cluster, self, plan, span.span_id if span is not None else None
            )
        finally:
            if span is not None:
                span.end()
        cluster.metrics.record_op(op, plan, result, start, sim.now)
        return result
