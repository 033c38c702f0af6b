"""Network fabric and node endpoints.

The network is a full bisection switch (the paper's Catalyst 10 GigE):
every message is delivered after ``latency + size * byte_time``,
independent of other traffic.  Congestion is deliberately not modeled —
the paper's effects are driven by protocol round-trip *counts* and
storage costs, not by link saturation (metadata messages are tiny).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.net.message import Message, MessageKind
from repro.net.stats import MessageStats
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.params import SimParams
from repro.sim import Event, Simulator, Store

if TYPE_CHECKING:  # pragma: no cover
    pass


class UnknownNode(KeyError):
    """Message addressed to a node id that was never registered."""


#: Bound once: ``MessageStats.EXCLUDED`` costs a global + attribute
#: load on every send otherwise.
_EXCLUDED = MessageStats.EXCLUDED


class Network:
    """Registry of nodes plus the delivery mechanism.

    One message, one timeline entry: every send schedules its own
    delivery handle carrying ``(msg, dst, epoch)``, so each delivery is
    an event index a fault probe can land on — including the gap
    between the two REQs of one cross-server operation.

    Crash semantics: every message is stamped at send time with the
    destination's crash *epoch* (bumped on every :meth:`Node.crash`).
    A delivery whose stamp no longer matches is dead-lettered — the
    destination crashed while the message was in flight, so it must
    not be handled even if the node has already rebooted.  Messages
    sent *to* a down node deliver normally once it reboots (the epoch
    matches); only the in-flight-across-a-crash window is dropped.

    :attr:`fault_hook`, when set, is consulted on every send and may
    drop, duplicate, or delay the message — the fault explorer's
    message-level injection point.  It is ``None``-checked once per
    send, so an unarmed network pays one attribute load.
    """

    def __init__(
        self,
        sim: Simulator,
        params: SimParams,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.params = params
        self.nodes: Dict[str, "Node"] = {}
        #: Optional callback ``node_id -> Node | None`` consulted when a
        #: message targets an unregistered id — the lazy-cluster hook
        #: that materializes servers on first contact.  Cold path only:
        #: a registered destination never pays for the check.
        self.node_factory = None
        self.stats = MessageStats()
        self.tracer = tracer or NULL_TRACER
        #: node id -> (net.sent, net.sent_bytes) counters, resolved once.
        self._send_counters: Dict[str, Optional[tuple]] = {}
        #: Optional ``msg -> None | ("drop",) | ("dup", extra_delay) |
        #: ("delay", extra_delay)`` callback — the fault explorer's
        #: message-fault injection point.
        self.fault_hook = None

    def register(self, node: "Node") -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node

    def delay_for(self, msg: Message) -> float:
        return self.params.net_latency + msg.size * self.params.net_byte_time

    def send(self, msg: Message) -> None:
        """Put ``msg`` on the wire; it arrives after the modeled delay.

        Delivery to a crashed node drops the message; if the sender has
        an RPC waiting on it, that RPC fails with ConnectionError (the
        transport's connection-reset), so callers can react instead of
        hanging.
        """
        dst = self.nodes.get(msg.dst)
        if dst is None:
            factory = self.node_factory
            if factory is not None:
                dst = factory(msg.dst)
            if dst is None:
                raise UnknownNode(msg.dst)
        # MessageStats.record, inlined (this is the per-message hot path).
        stats = self.stats
        kind = msg.kind
        stats.by_kind[kind] += 1
        if kind not in _EXCLUDED:
            stats.total += 1
            stats.total_bytes += msg.size
        counters = self._send_counters.get(msg.src, False)
        if counters is False:
            metrics = getattr(self.nodes.get(msg.src), "metrics", None)
            counters = self._send_counters[msg.src] = (
                None if metrics is None
                else (metrics.counter("net.sent"), metrics.counter("net.sent_bytes"))
            )
        if counters is not None:
            counters[0].value += 1
            counters[1].value += msg.size
        # Via delay_for (not inlined): tests shim it to skew deliveries.
        delay = self.delay_for(msg)
        if self.tracer.enabled:
            op_id = msg.payload.get("op_id") or msg.payload.get("op")
            # Sampled-out ops skip the hop record *and* its id/args
            # construction — this guard is what keeps the always-on
            # tracer cheap (``obs.tracer_overhead_frac`` in ``bench/``).
            if self.tracer.sampled(op_id):
                # The hop gets a span of its own: parented on the
                # sender's current span, and handed to the receiver by
                # rewriting the message's span id — this is what
                # stitches cross-node chains into one causal DAG.
                # ``delay`` in the args lets the critical-path analyzer
                # reconstruct the wire interval without a second record
                # at delivery time.
                hop_id = self.tracer.next_span_id()
                self.tracer.event(
                    "msg", msg.src, cat="net", op_id=op_id,
                    span_id=hop_id, parent=msg.span_id,
                    kind=msg.kind.value, dst=msg.dst, size=msg.size,
                    delay=delay,
                )
                msg.span_id = hop_id

        epoch = dst.epoch
        hook = self.fault_hook
        if hook is not None:
            action = hook(msg)
            if action is not None:
                what = action[0]
                if what == "drop":
                    # Epoch -1 never matches: the delivery-time check
                    # dead-letters the message at its arrival instant,
                    # failing the sender's RPC there (a lost message
                    # surfaces as a connection reset, not a hang).
                    epoch = -1
                elif what == "dup":
                    self.sim.timeout_h(delay + action[1], (msg, dst, epoch),
                                       self._deliver)
                elif what == "delay":
                    delay += action[1]
        self.sim.timeout_h(delay, (msg, dst, epoch), self._deliver)

    def _deliver(self, h: int) -> None:
        """Dispatch callback: deliver one message.

        The message is dead-lettered when the destination is down *or*
        its send-time epoch stamp is stale (the destination crashed
        while the message was in flight, even if it has rebooted
        since): a crashed server is silent until recovery, and nothing
        sent to its previous incarnation may reach the new one.
        """
        msg, dst, epoch = self.sim.value_h(h)
        if dst.crashed or dst.epoch != epoch:
            self._dead_letter(msg)
        else:
            dst.deliver(msg)

    def _dead_letter(self, msg: Message) -> None:
        """Drop an undeliverable message, failing the sender's RPC.

        The sender sees the loss as a connection reset at the arrival
        instant (so RPC callers react instead of hanging); the drop is
        counted in :attr:`MessageStats.dead_letters` and, when tracing,
        recorded as a ``net.dead-letter`` instant for the repro trail.
        """
        self.stats.dead_letters += 1
        src = self.nodes.get(msg.src)
        if src is not None:
            waiter = src._pending_rpcs.pop(msg.msg_id, None)
            if waiter is not None and not waiter.triggered:
                waiter.fail(ConnectionError(f"{msg.dst} is down"))
        tracer = self.tracer
        if tracer.enabled:
            op_id = msg.payload.get("op_id") or msg.payload.get("op")
            if tracer.sampled(op_id):
                tracer.event(
                    "net.dead-letter", msg.dst, cat="net", op_id=op_id,
                    kind=msg.kind.value, src=msg.src,
                )


class Node:
    """A network endpoint: a metadata server or a client machine.

    Incoming messages are routed two ways:

    * responses (``reply_to`` set) complete the matching RPC event;
    * everything else lands in :attr:`inbox` for the node's service loop.

    ``crashed`` nodes drop all traffic, modeling a killed process.
    """

    def __init__(self, sim: Simulator, network: Network, node_id: str) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.inbox: Store = Store(sim)
        self.crashed = False
        #: Crash incarnation counter.  Bumped on every :meth:`crash`
        #: (not on reboot): a message stamped with an older epoch was
        #: in flight when the node died and must never be delivered.
        self.epoch = 0
        self._pending_rpcs: Dict[int, Event] = {}
        network.register(self)

    # -- receiving -------------------------------------------------------

    def deliver(self, msg: Message) -> None:
        if self.crashed:
            return
        if msg.reply_to is not None:
            waiter = self._pending_rpcs.pop(msg.reply_to, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(msg)
                return
            # Fall through: a reply nobody waits for (e.g. the waiter
            # timed out or the node rebooted) is treated as unsolicited.
        self.inbox.put(msg)

    # -- sending ---------------------------------------------------------

    def send(
        self,
        dst: str,
        kind: MessageKind,
        payload: Optional[Dict[str, Any]] = None,
        size: Optional[int] = None,
        span_id: Optional[int] = None,
    ) -> Message:
        """Fire-and-forget send; returns the message (for its msg_id).

        ``span_id`` is the sender's current trace span; the network hop
        is parented on it (see :meth:`Network.send`).
        """
        msg = Message(
            kind, self.node_id, dst, payload or {},
            size if size is not None else self.network.params.msg_base_size,
            None, None, span_id,
        )
        self.network.send(msg)
        return msg

    def send_reply(
        self,
        request: Message,
        kind: MessageKind,
        payload: Optional[Dict[str, Any]] = None,
        size: Optional[int] = None,
        span_id: Optional[int] = None,
    ) -> Message:
        """Respond to ``request``."""
        msg = request.reply(
            kind,
            payload,
            size=size if size is not None else self.network.params.msg_base_size,
            span_id=span_id,
        )
        self.network.send(msg)
        return msg

    def request(
        self,
        dst: str,
        kind: MessageKind,
        payload: Optional[Dict[str, Any]] = None,
        size: Optional[int] = None,
        span_id: Optional[int] = None,
    ) -> Event:
        """RPC helper: send a request, get an event for the response.

        The event succeeds with the response :class:`Message`.  It never
        times out on its own.  A lost *request* — destination down or
        crashed in flight, or dropped by the fault hook (``drop``, a
        partition) — fails it with ``ConnectionError`` at the arrival
        instant (:meth:`Network._dead_letter`), as does our own crash
        (:meth:`fail_pending_rpcs`).  A lost *reply* fails nothing: a
        caller that must survive one bounds the wait itself (the commit
        RPC timeout, the client retry timer).  A duplicated reply lands
        in the inbox as an unsolicited message.
        """
        msg = self.send(dst, kind, payload, size, span_id=span_id)
        ev = Event(self.sim)
        self._pending_rpcs[msg.msg_id] = ev
        return ev

    def fail_pending_rpcs(self, exc: BaseException) -> None:
        """Fail all in-flight RPCs (our own crash: see :meth:`crash`)."""
        pending = list(self._pending_rpcs.values())
        self._pending_rpcs.clear()
        for ev in pending:
            if not ev.triggered:
                ev.fail(exc)

    # -- crash / reboot ----------------------------------------------------

    def crash(self) -> None:
        self.crashed = True
        self.epoch += 1  # invalidates every message already in flight here
        self.inbox.close()
        self.fail_pending_rpcs(ConnectionError(f"{self.node_id} crashed"))

    def reboot(self) -> None:
        self.crashed = False
        self.inbox.reopen()
