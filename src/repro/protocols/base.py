"""Protocol plug-in interface.

A protocol contributes two halves:

* a **client driver** — :meth:`Protocol.client_perform` is a generator
  run inside the client process; it exchanges messages with servers and
  returns an :class:`~repro.cluster.client.OpResult`;
* a **server role** — one :class:`ServerRole` instance per server,
  whose :meth:`ServerRole.handle` is spawned per incoming message.

Every protocol executes the *same* sub-op planning
(:meth:`NamespaceShard.execute`); they differ in message choreography
and persistence discipline, which is exactly the comparison the paper
makes.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Generator, Optional

from repro.cluster.client import ClientProcess, OpResult
from repro.fs.namespace import ExecResult
from repro.fs.ops import OpPlan, SubOp
from repro.net.message import Message, MessageKind
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
        self, cluster: "Cluster", process: ClientProcess, plan: OpPlan
    ) -> Generator:
        """Generator driving one operation; returns an OpResult."""


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

    def execute_readonly(self, subop: SubOp):
        """Common read path: CPU cost then a shard read, no disk."""
        yield self.sim.timeout_h(self.params.cpu_readonly)
        return self.server.shard.execute(subop, self.sim.now)

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
        op_id = plan.op.op_id
        yield self.sim.timeout_h(self.params.cpu_subop)

        if not plan.cross_server:
            res = self.server.shard.execute(plan.coord_subop, self.sim.now)
            if res.ok:
                events = self.server.shard.apply_sync(res.updates)
                if events:
                    yield self.sim.all_of(events)
            self.reply_result(msg, res)
            return

        # 1. validate the source-side removal without applying it
        res = self.server.shard.execute(plan.coord_subop, self.sim.now)
        if not res.ok:
            self.reply_result(msg, res)
            return

        # 2. prepare the destination insert
        prep = yield self.server.request(
            self.cluster.server_id(plan.participant),
            MessageKind.RENAME_PREP,
            {"subop": plan.part_subop, "txn": op_id},
        )
        if not prep.payload["ok"]:
            self.reply_result(msg, ExecResult(ok=False, errno=prep.payload["errno"]))
            return

        # 3. commit: apply the removal, log, finalize the destination
        yield self.server.wal.append_h(
            LogRecord(op_id, RENAME_RECORD, size=self.params.log_record_size)
        )
        events = self.server.shard.apply_sync(res.updates)
        if events:
            yield self.sim.all_of(events)
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
        subop = msg.payload["subop"]
        op_id = msg.payload["txn"]
        yield self.sim.timeout_h(self.params.cpu_subop)
        res = self.server.shard.execute(subop, self.sim.now)
        if res.ok:
            yield self.server.wal.append_h(
                LogRecord(op_id, RENAME_RECORD, size=self.params.log_record_size)
            )
            events = self.server.shard.apply_sync(res.updates)
            if events:
                yield self.sim.all_of(events)
            self._rename_pending[op_id] = res.undo
        self.server.send_reply(
            msg, MessageKind.YES if res.ok else MessageKind.NO,
            {"ok": res.ok, "errno": res.errno},
        )

    def _rename_decide(self, msg: Message):
        op_id = msg.payload["txn"]
        undo = self._rename_pending.pop(op_id, None)
        if not msg.payload["commit"] and undo is not None:
            events = self.server.shard.apply_sync(undo)
            if events:
                yield self.sim.all_of(events)
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


def result_from_resp(msg: Message, conflicted: bool = False) -> OpResult:
    """Build an OpResult from a RESP payload."""
    p = msg.payload
    return OpResult(
        ok=bool(p.get("ok")),
        errno=p.get("errno"),
        value=p.get("value"),
        conflicted=conflicted or bool(p.get("conflicted")),
    )


# ---------------------------------------------------------------- rename


def rename_client_perform(cluster, process: ClientProcess, plan: OpPlan):
    """Client side of the eager rename fallback (all protocols).

    Renames are excluded from Cx's optimization (paper footnote 1:
    operations needing more than two metadata servers); every protocol
    runs them as one coordinator-driven eager transaction.
    """
    resp = yield process.node.request(
        cluster.server_id(plan.coordinator),
        MessageKind.REQ,
        {"rename_plan": plan},
    )
    return result_from_resp(resp)


def is_rename_message(msg: Message) -> bool:
    return msg.kind in (MessageKind.RENAME_PREP, MessageKind.RENAME_DECIDE) or (
        msg.kind is MessageKind.REQ and "rename_plan" in msg.payload
    )
