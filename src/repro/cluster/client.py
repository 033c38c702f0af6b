"""Client machines, client processes, and the one client driver.

A :class:`ClientNode` is one load-generating machine; it hosts several
:class:`ClientProcess` es (the paper's Metarates runs use 8 per client).
Each process issues metadata operations *synchronously* — the next
operation starts only after the previous one completed from the
process's perspective — which is the consistency baseline Cx's design
leans on (paper §III.B: "the metadata operations of a process are
performed synchronously").

:meth:`ClientProcess.perform` drives every operation of every protocol.
The protocol only says what to send first and how to fold a reply into
the op (:meth:`~repro.protocols.base.Protocol.first_round`,
:meth:`~repro.protocols.base.Protocol.combine`); the driver owns the
op's reply channel, its ``client-op`` span and its one retry deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.fs.ops import FileOperation, OpPlan
from repro.net.message import Message, MessageKind
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

    @classmethod
    def from_reply(cls, msg: Message) -> "OpResult":
        """The result a server's reply states."""
        p = msg.payload
        return cls(
            ok=bool(p.get("ok")),
            errno=p.get("errno"),
            value=p.get("value"),
            conflicted=bool(p.get("conflicted")),
        )


class ClientNode(Node):
    """A client machine: routes each server reply, by the operation id
    it carries, to that operation's channel.  One request may be
    answered more than once (a superseded Cx response, a resend), so
    the driver, not the node, decides which reply counts."""

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
        op_id = msg.payload.get("op_id")
        if op_id is not None and op_id in self._op_channels:
            self._op_channels[op_id].put(msg)
            return
        super().deliver(msg)


#: One request of a call: destination, kind, payload and span id.
Request = Tuple[str, MessageKind, dict, Optional[int]]


class Call:
    """One operation's conversation with the servers.

    The protocol's first round and combine step read it and build their
    requests with :meth:`request`; :attr:`latest` and
    :attr:`conflicted` are theirs to keep.
    """

    __slots__ = ("cluster", "node", "plan", "op_sid", "sent", "latest",
                 "conflicted")

    def __init__(self, process: "ClientProcess", plan: OpPlan,
                 op_sid: Optional[int]) -> None:
        self.cluster = process.cluster
        self.node = process.node
        self.plan = plan
        #: The op's ``client-op`` span id (None untraced).
        self.op_sid = op_sid
        #: Every request sent so far, in order, as first built.
        self.sent: List[Request] = []
        #: The latest reply per request, keyed as the protocol likes.
        self.latest: dict = {}
        #: Whether any reply so far reported a conflict.
        self.conflicted = False

    def request(self, server: int, kind: MessageKind, payload: dict,
                after: Optional[Message] = None) -> Request:
        """A request to server index ``server``.  Its hop is parented on
        the op's span, or on the reply ``after`` when it may only go out
        once that reply arrived (a serial dependency)."""
        span_id = self.op_sid
        if after is not None and span_id is not None:
            span_id = after.span_id
        return (self.cluster.server_id(server), kind, payload, span_id)

    def request_once(self, server: int, kind: MessageKind, payload: dict,
                     step: int = 0, after: Optional[Message] = None) -> Request:
        """A request the server's reply slot runs at most once: stamped
        with the op id, its round ``step`` and the time it is first
        sent (see :meth:`~repro.protocols.base.ServerRole.serve_request`)."""
        payload["op_id"] = self.plan.op.op_id
        payload["round"] = step
        payload["sent"] = self.cluster.sim.now
        return self.request(server, kind, payload, after)

    def send(self, requests: Optional[List[Request]] = None) -> None:
        """Send a round and keep it; without one, send every request so
        far again, in order.  Each is idempotent at its server: Cx's
        pending and completed tables answer a sub-op, the reply slot
        answers everything else.  Payloads are copied per send, since a
        server may annotate the message it holds."""
        if requests is None:
            requests = self.sent
        else:
            self.sent += requests
        send = self.node.send
        for dst, kind, payload, span_id in requests:
            send(dst, kind, dict(payload), span_id=span_id)


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

        The one client driver.  It opens the op's channel and its
        ``client-op`` span (the window the critical-path analyzer
        partitions), sends the protocol's first round, and folds every
        reply in with the protocol's combine step until that returns
        the :class:`OpResult`; a returned list of requests is the next
        round.  One retry deadline (``SimParams.client_retry_timeout``),
        pushed back by every reply, resends every request so far on
        expiry, so a lost message or a crashed server is only a late
        reply.  Returns the result; also records metrics.
        """
        cluster = self.cluster
        sim = cluster.sim
        node = self.node
        start = sim.now
        plan = cluster.plan(op)
        yield sim.timeout_h(cluster.params.cpu_client_op)
        protocol = cluster.protocol
        tracer = cluster.tracer
        span = (
            tracer.begin(
                "client-op", node.node_id, op_id=op.op_id,
                phase=PHASE_CLIENT, op_type=op.op_type.value,
                cross=plan.cross_server,
            )
            if tracer.enabled and tracer.sampled(op.op_id) else None
        )
        call = Call(self, plan, span.span_id if span is not None else None)
        op_id = op.op_id
        retry = cluster.params.client_retry_timeout
        channel = node.register_op(op_id)

        def expired(_key) -> float:
            call.send()
            return sim.now + retry

        try:
            call.send(protocol.first_round(call))
            node.set_deadline(op_id, sim.now + retry, expired)
            while True:
                msg = yield channel.get_h()
                node.extend_deadline(op_id, sim.now + retry)
                out = protocol.combine(call, msg)
                if out.__class__ is OpResult:
                    result: OpResult = out
                    break
                if out:
                    call.send(out)
        finally:
            node.unregister_op(op_id)
            if span is not None:
                span.end()
        cluster.metrics.record_op(op, plan, result, start, sim.now)
        return result
