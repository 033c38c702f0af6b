"""Protocol plug-in interface and the server skeleton every protocol shares.

A protocol contributes a **client side** (:meth:`Protocol.client_perform`,
a generator run inside the client process, under the ``client-op`` span
the process opens) and a **server role** (one :class:`ServerRole` per
server, whose :meth:`ServerRole.handle` is spawned per message).

Every protocol runs the *same* sub-op planning
(:meth:`NamespaceShard.execute`) through the same :class:`ServerRole`
steps — :meth:`~ServerRole.execute_readonly`,
:meth:`~ServerRole.execute_update`, :meth:`~ServerRole.write_through`
(the one synchronous KV write), :meth:`~ServerRole.append_record` (a
traced log append) and :meth:`~ServerRole.serve_local` (a request one
server answers alone).  The protocols differ only in message
choreography and persistence discipline — what they do between and
after those steps — which is exactly the comparison the paper makes.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Generator, Optional

from repro.cluster.client import ClientProcess, OpResult
from repro.fs.namespace import ExecResult
from repro.fs.ops import OpPlan, SubOp
from repro.net.message import Message, MessageKind
from repro.obs.tracer import PHASE_EXEC, PHASE_RECORD
from repro.storage.wal import LogRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.server import MetadataServer


class Protocol(abc.ABC):
    """Factory for the two protocol halves."""

    #: Short name used by experiment harnesses and reports.
    name: str = "abstract"

    @abc.abstractmethod
    def make_role(self, server: "MetadataServer", cluster: "Cluster") -> "ServerRole":
        """Build this protocol's server-side role for ``server``."""

    @abc.abstractmethod
    def client_perform(
        self, cluster: "Cluster", process: ClientProcess, plan: OpPlan,
        op_sid: Optional[int],
    ) -> Generator:
        """Generator driving one operation; returns an OpResult.

        ``op_sid`` is the op's ``client-op`` span id (None untraced):
        the parent of every request it sends.
        """


class EagerProtocol(Protocol):
    """The eager baselines' client (2PC, CE): one REQ to the
    coordinator, carrying the participant's sub-op when cross-server."""

    def client_perform(
        self, cluster: "Cluster", process: ClientProcess, plan: OpPlan,
        op_sid: Optional[int],
    ) -> Generator:
        payload = {"subop": plan.coord_subop, "op_id": plan.op.op_id}
        if plan.cross_server:
            payload["part_subop"] = plan.part_subop
            payload["participant"] = plan.participant
        resp = yield process.node.request(
            cluster.server_id(plan.coordinator), MessageKind.REQ, payload,
            span_id=op_sid,
        )
        return result_from_resp(resp)


#: Log record type for the eager rename transaction.
RENAME_RECORD = "RENAME"


class ServerRole(abc.ABC):
    """Server-side message handling for one protocol on one server."""

    def __init__(self, server: "MetadataServer", cluster: "Cluster") -> None:
        self.server = server
        self.cluster = cluster
        self.params = server.params
        self.sim = server.sim
        #: Destination side of in-flight renames: txn id -> undo image
        #: kept between RENAME-PREP and RENAME-DECIDE.  Volatile.
        self._rename_pending: dict = {}

    def start(self) -> None:
        """Spawn background activities (triggers, flushers). Idempotent."""

    @abc.abstractmethod
    def handle(self, msg: Message) -> Optional[Generator]:
        """Process one incoming message at its dispatch instant.

        Either a generator function (the server drives the generator as
        the handler's own activity) or a plain method that returns such
        a generator — or ``None`` once it has served the message inline,
        which is only right for work that needs no disk, no timeout and
        no waiting.  Never called for rename messages; those take
        :meth:`handle_rename`.
        """

    def flush_now(self) -> None:
        """Force any lazy/batched work to be scheduled immediately."""

    def on_crash(self) -> None:
        """Drop protocol volatile state (pending tables, queues); the
        server has already killed every activity it owns.  Overriders
        call ``super().on_crash()``."""
        self._rename_pending.clear()

    def on_reboot(self) -> None:
        """Re-arm background activities after a reboot."""
        self.start()

    # -- the shared steps -----------------------------------------------------
    #
    # Generators a role drives with ``yield from``.  The two execution
    # steps return ``(result, exec span id)``; the span id is None when
    # the op is not traced, and is what the role's next step or reply
    # chains on.

    def execute_readonly(self, msg: Message, subop: SubOp):
        """Read step: CPU cost then a shard read, no disk."""
        tracer = self.server.tracer
        span = (
            tracer.begin(
                "exec", self.server.node_id, op_id=subop.op_id,
                phase=PHASE_EXEC, parent=msg.span_id,
                role=subop.role, readonly=True,
            )
            if tracer.enabled and tracer.sampled(subop.op_id) else None
        )
        yield self.sim.timeout_h(self.params.cpu_readonly)
        res = self.server.shard.execute(subop, self.sim.now)
        if span is None:
            return res, None
        span.end(ok=res.ok)
        return res, span.span_id

    def execute_update(self, msg: Message, subop: SubOp):
        """Update step: CPU cost then the sub-op's planning; nothing is
        applied — persisting ``result.updates`` is the protocol's part."""
        tracer = self.server.tracer
        span = (
            tracer.begin(
                "exec", self.server.node_id, op_id=subop.op_id,
                phase=PHASE_EXEC, parent=msg.span_id, role=subop.role,
            )
            if tracer.enabled and tracer.sampled(subop.op_id) else None
        )
        yield self.sim.timeout_h(self.params.cpu_subop)
        res = self.server.shard.execute(subop, self.sim.now)
        if span is None:
            return res, None
        span.end(ok=res.ok, errno=res.errno)
        return res, span.span_id

    def write_through(self, updates):
        """Apply ``updates`` synchronously: one KV transaction, awaited."""
        events = self.server.shard.apply_sync(updates)
        if events:
            yield self.sim.all_of(events)

    def append_record(self, record: LogRecord, subop: SubOp, parent: Optional[int]):
        """Append ``record`` to the log and wait until it is durable.

        Traced, the wait is a ``result-record`` span chained on
        ``parent``, and its id is returned (None untraced).
        """
        tracer = self.server.tracer
        if not (tracer.enabled and tracer.sampled(subop.op_id)):
            yield self.server.wal.append_h(record)
            return None
        span = tracer.begin(
            "result-record", self.server.node_id, op_id=subop.op_id,
            phase=PHASE_RECORD, parent=parent, role=subop.role,
            size=record.size,
        )
        # Ambient parent for the WAL's own instants: set and cleared
        # around the synchronous append() call (the yield waits on the
        # returned handle, after the records are admitted).
        tracer.ambient = span.span_id
        done = self.server.wal.append_h(record)
        tracer.ambient = None
        yield done
        span.end()
        return span.span_id

    def serve_local(self, msg: Message, subop: SubOp):
        """A request one server answers alone: a read, or an update
        written through before the reply."""
        if subop.is_readonly:
            res, sid = yield from self.execute_readonly(msg, subop)
        else:
            res, sid = yield from self.execute_update(msg, subop)
            if res.ok:
                yield from self.write_through(res.updates)
        self.reply_result(msg, res, span_id=sid)

    # -- shared helpers ------------------------------------------------------

    def reject(self, msg: Message) -> None:
        """``handle``'s last branch: a kind this protocol never receives.

        Except one: a reply whose RPC waiter died with our own crash
        reaches the inbox as an ordinary message after the reboot.  It
        answers a question nobody remembers asking — count and drop.
        """
        if msg.reply_to is None:
            raise ValueError(f"{type(self).__name__} got unexpected {msg.kind}")
        self.server.metrics.counter("replies.unsolicited").inc()

    def reply_result(self, msg: Message, res, extra=None, span_id=None) -> None:
        """RESP carrying ok/errno/value (+ opaque extras).

        Without ``span_id`` the reply inherits the request's span
        context (see :meth:`Message.reply`), so it still chains.
        """
        payload = {
            "ok": res.ok,
            "errno": res.errno,
            "value": res.value,
            "undo": res.undo,
            # Echo the request's op id (when the protocol sent one) so
            # the reply's network hop lands in the op's causal DAG.
            "op_id": msg.payload.get("op_id"),
        }
        if extra:
            payload.update(extra)
        self.server.send_reply(msg, MessageKind.RESP, payload, span_id=span_id)

    # -- rename transaction ---------------------------------------------------
    #
    # Server-side rename transaction, shared by every protocol role.
    #
    # Flow (cross-shard case; coordinator = source-entry server):
    #
    # 1. validate the source removal locally (no mutation yet);
    # 2. RENAME-PREP to the destination server, which executes + applies
    #    the insert synchronously, logs it, and answers YES/NO keeping an
    #    undo on hand;
    # 3. on YES, apply the removal synchronously, log, RENAME-DECIDE
    #    commit (destination prunes) and answer the client; on NO,
    #    nothing was applied anywhere — answer the failure.
    #
    # Note: the eager path intentionally does not consult Cx's
    # active-object table; renames of objects with in-flight pending
    # operations are serialized by the workloads in this reproduction.

    def handle_rename(self, msg: Message):
        if msg.kind is MessageKind.REQ:
            yield from self._rename_coordinate(msg)
        elif msg.kind is MessageKind.RENAME_PREP:
            yield from self._rename_prepare(msg)
        elif msg.kind is MessageKind.RENAME_DECIDE:
            yield from self._rename_decide(msg)
        else:  # pragma: no cover - dispatch error
            raise ValueError(f"not a rename message: {msg.kind}")

    def _rename_coordinate(self, msg: Message):
        plan: OpPlan = msg.payload["rename_plan"]
        if not plan.cross_server:
            yield from self.serve_local(msg, plan.coord_subop)
            return

        # 1. validate the source-side removal without applying it
        op_id = plan.op.op_id
        res, sid = yield from self.execute_update(msg, plan.coord_subop)
        if not res.ok:
            self.reply_result(msg, res, span_id=sid)
            return

        # 2. prepare the destination insert
        prep = yield self.server.request(
            self.cluster.server_id(plan.participant),
            MessageKind.RENAME_PREP,
            {"subop": plan.part_subop, "txn": op_id},
            span_id=sid,
        )
        if not prep.payload["ok"]:
            self.reply_result(msg, ExecResult(ok=False, errno=prep.payload["errno"]))
            return

        # 3. commit: apply the removal, log, finalize the destination
        yield self.server.wal.append_h(
            LogRecord(op_id, RENAME_RECORD, size=self.params.log_record_size)
        )
        yield from self.write_through(res.updates)
        ack = yield self.server.request(
            self.cluster.server_id(plan.participant),
            MessageKind.RENAME_DECIDE,
            {"txn": op_id, "commit": True},
        )
        assert ack.kind is MessageKind.ACK
        if self.server.tracer.enabled:
            self.server.tracer.event(
                "decision", self.server.node_id, cat="protocol",
                op_id=op_id, committed=True, role="rename-coord",
            )
        self.server.wal.prune_op(op_id)
        self.reply_result(msg, res)

    def _rename_prepare(self, msg: Message):
        op_id = msg.payload["txn"]
        res, sid = yield from self.execute_update(msg, msg.payload["subop"])
        if res.ok:
            yield self.server.wal.append_h(
                LogRecord(op_id, RENAME_RECORD, size=self.params.log_record_size)
            )
            yield from self.write_through(res.updates)
            self._rename_pending[op_id] = res.undo
        self.server.send_reply(
            msg, MessageKind.YES if res.ok else MessageKind.NO,
            {"ok": res.ok, "errno": res.errno}, span_id=sid,
        )

    def _rename_decide(self, msg: Message):
        op_id = msg.payload["txn"]
        undo = self._rename_pending.pop(op_id, None)
        if not msg.payload["commit"] and undo is not None:
            yield from self.write_through(undo)
        else:
            yield self.sim.timeout_h(self.params.kv_cpu)
        if self.server.tracer.enabled:
            self.server.tracer.event(
                "decision", self.server.node_id, cat="protocol",
                op_id=op_id, committed=bool(msg.payload["commit"]),
                role="rename-part",
            )
        self.server.wal.prune_op(op_id)
        self.server.send_reply(msg, MessageKind.ACK, {"txn": op_id})


def result_from_resp(msg: Message) -> OpResult:
    """Build an OpResult from a RESP payload."""
    p = msg.payload
    return OpResult(
        ok=bool(p.get("ok")),
        errno=p.get("errno"),
        value=p.get("value"),
        conflicted=bool(p.get("conflicted")),
    )


# ---------------------------------------------------------------- rename


def rename_client_perform(
    cluster, process: ClientProcess, plan: OpPlan, op_sid: Optional[int]
):
    """Client side of the eager rename fallback (all protocols).

    Renames are excluded from Cx's optimization (paper footnote 1:
    operations needing more than two metadata servers); every protocol
    runs them as one coordinator-driven eager transaction.
    """
    resp = yield process.node.request(
        cluster.server_id(plan.coordinator),
        MessageKind.REQ,
        {"rename_plan": plan, "op_id": plan.op.op_id},
        span_id=op_sid,
    )
    return result_from_resp(resp)


def is_rename_message(msg: Message) -> bool:
    return msg.kind in (MessageKind.RENAME_PREP, MessageKind.RENAME_DECIDE) or (
        msg.kind is MessageKind.REQ and "rename_plan" in msg.payload
    )
