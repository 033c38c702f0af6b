"""Protocol plug-in interface and the server skeleton every protocol shares.

A protocol contributes a **client half** — :meth:`Protocol.first_round`
(the requests an op opens with) and :meth:`Protocol.combine` (fold one
reply in: the result, the next round, or wait), called by the one client
driver, :meth:`repro.cluster.client.ClientProcess.perform`, which owns
the channel, the ``client-op`` span and the retry — and a **server
role** (one :class:`ServerRole` per server, whose
:meth:`ServerRole.handle` is spawned per message).

Every protocol runs the *same* sub-op planning
(:meth:`NamespaceShard.execute`) through the same :class:`ServerRole`
steps — :meth:`~ServerRole.execute_readonly`,
:meth:`~ServerRole.execute_update`, :meth:`~ServerRole.write_through`
(the one synchronous KV write), :meth:`~ServerRole.append_record` (a
traced log append) and :meth:`~ServerRole.serve_local` (a request one
server answers alone) — behind the same per-process reply slot
(:meth:`~ServerRole.serve_request`).  The protocols differ only in
message choreography and persistence discipline — what they do between
and after those steps — which is exactly the comparison the paper makes.
"""

from __future__ import annotations

import abc
from math import inf
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Union

from repro.cluster.client import Call, OpResult, Request
from repro.fs.namespace import ExecResult
from repro.fs.ops import OpPlan, SubOp
from repro.net.message import Message, MessageKind
from repro.obs.tracer import PHASE_EXEC, PHASE_RECORD
from repro.storage.wal import LogRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.server import MetadataServer


class Protocol(abc.ABC):
    """Factory for the server role, plus the client half.

    The default client half is the eager transaction: one REQ to the
    coordinator carrying the whole plan, whose reply decides.  2PC and
    CE run every op that way; Cx and SE hand their renames back to it
    (paper footnote 1: a rename may need more than two servers).
    """

    #: Short name used by experiment harnesses and reports.
    name: str = "abstract"

    @abc.abstractmethod
    def make_role(self, server: "MetadataServer", cluster: "Cluster") -> "ServerRole":
        """Build this protocol's server-side role for ``server``."""

    def first_round(self, call: Call) -> List[Request]:
        """The requests that open ``call.plan``."""
        plan = call.plan
        return [call.request_once(plan.coordinator, MessageKind.REQ, {"plan": plan})]

    def combine(self, call: Call, msg: Message) -> Union[OpResult, List[Request], None]:
        """Fold the reply ``msg`` into ``call``: the op's result, the
        next round's requests, or None to wait for more."""
        return OpResult.from_reply(msg)


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
        #: The reply slots: (client, process) -> ``[(op id, round),
        #: (kind, payload) of its reply or None while it runs, whether
        #: its handler has :meth:`decided` to commit]``.
        self._slots: Dict[tuple, list] = {}
        #: When the last crash wiped the slots.
        self._forgot_at = -inf

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
        self._slots.clear()
        self._forgot_at = self.sim.now

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
        return self._execute(msg, subop, self.params.cpu_readonly, True)

    def execute_update(self, msg: Message, subop: SubOp):
        """Update step: CPU cost then the sub-op's planning; nothing is
        applied — persisting ``result.updates`` is the protocol's part."""
        return self._execute(msg, subop, self.params.cpu_subop, False)

    def _execute(self, msg: Message, subop: SubOp, cpu: float, readonly: bool):
        tracer = self.server.tracer
        span = (
            tracer.begin(
                "exec", self.server.node_id, op_id=subop.op_id,
                phase=PHASE_EXEC, parent=msg.span_id, role=subop.role,
                **({"readonly": True} if readonly else {}),
            )
            if tracer.enabled and tracer.sampled(subop.op_id) else None
        )
        yield self.sim.timeout_h(cpu)
        res = self.server.shard.execute(subop, self.sim.now)
        if span is None:
            return res, None
        if readonly:
            span.end(ok=res.ok)
        else:
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

    # -- the reply slot ------------------------------------------------------
    #
    # A process has at most one op in flight (paper §III.B: its metadata
    # operations are synchronous), so exactly-once replies need one slot
    # per (client, process).  It serves every client request that
    # carries a ``round``: the baselines' REQs and CLEAR, and every
    # protocol's rename.  Cx's other REQs answer resends from its
    # pending and completed tables instead.

    def serve_request(self, msg: Message) -> Optional[Generator]:
        """Run the client request ``msg`` at most once.

        A resend of the slot's request is answered from the slot, or
        dropped while its handler runs; an older ``(op id, round)`` is
        dropped (a REQ delayed past its CLEAR must not re-create the
        inode).  A handler that ends without replying before it
        :meth:`decided` — a peer's ``ConnectionError`` — wrote nothing,
        so it frees the slot and the resend runs the op again.  A new
        request first sent before this server's last crash is left
        unanswered: the crash wiped the slot that could tell whether it
        already ran, and running it twice would answer the client
        wrongly (a create's own inode reported as EEXIST).
        """
        p = msg.payload
        op_id = p["op_id"]
        key = (op_id, p["round"])
        owner = op_id[:2]
        slot = self._slots.get(owner)
        if slot is not None and key <= slot[0]:
            if key == slot[0] and slot[1] is not None:
                kind, payload = slot[1]
                self.server.send_reply(msg, kind, dict(payload))
            return None
        if p["sent"] < self._forgot_at:
            self.server.metrics.counter("requests.forgotten").inc()
            return None
        self._slots[owner] = slot = [key, None, False]
        plan = p.get("plan")
        rename = plan is not None and plan.is_rename
        return self._run_once(owner, slot,
                              self.handle_rename(msg) if rename else self.handle(msg))

    def _run_once(self, owner: tuple, slot: list, gen: Generator) -> Generator:
        try:
            return (yield from gen)
        finally:
            if slot[1] is None and not slot[2] and self._slots.get(owner) is slot:
                del self._slots[owner]

    def decided(self, msg: Message) -> None:
        """The handler of the client request ``msg`` decided to commit
        and is about to write: the op never runs again, even if the
        handler dies."""
        slot = self._slots.get(msg.payload["op_id"][:2])
        if slot is not None:
            slot[2] = True

    def deliver_decision(self, dst: str, kind: MessageKind, payload: dict, **kw):
        """Send a logged decision to the peer ``dst`` until it arrives
        (a lost message is sent again every ``commit_rpc_timeout``)."""
        while True:
            try:
                ack = yield self.server.request(dst, kind, payload, **kw)
            except ConnectionError:
                yield self.sim.timeout_h(self.params.commit_rpc_timeout)
                continue
            assert ack.kind is MessageKind.ACK
            return ack

    def answer(self, msg: Message, kind: MessageKind, payload: dict,
               span_id: Optional[int] = None) -> None:
        """Reply to the client request ``msg``, echoing its op id (the
        client routes on it, and the hop lands in the op's causal DAG)
        and its round, and keep the reply in the slot for a resend."""
        p = msg.payload
        op_id = payload["op_id"] = p.get("op_id")
        rnd = p.get("round")
        if rnd is not None:
            payload["round"] = rnd
            slot = self._slots.get(op_id[:2])
            if slot is not None and slot[0] == (op_id, rnd):
                slot[1] = (kind, payload)
        self.server.send_reply(msg, kind, payload, span_id=span_id)

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

    def reply_result(self, msg: Message, res, span_id=None) -> None:
        """:meth:`answer` with a RESP carrying ok/errno/value/undo.

        Without ``span_id`` the reply inherits the request's span
        context (see :meth:`Message.reply`), so it still chains.
        """
        self.answer(msg, MessageKind.RESP, {
            "ok": res.ok, "errno": res.errno, "value": res.value,
            "undo": res.undo,
        }, span_id=span_id)

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
        plan: OpPlan = msg.payload["plan"]
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
        self.decided(msg)
        yield self.server.wal.append_h(
            LogRecord(op_id, RENAME_RECORD, size=self.params.log_record_size)
        )
        yield from self.write_through(res.updates)
        yield from self.deliver_decision(
            self.cluster.server_id(plan.participant),
            MessageKind.RENAME_DECIDE,
            {"txn": op_id, "commit": True},
        )
        self._trace_decision(op_id, True, "rename-coord")
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
        self._trace_decision(op_id, bool(msg.payload["commit"]), "rename-part")
        self.server.wal.prune_op(op_id)
        self.server.send_reply(msg, MessageKind.ACK, {"txn": op_id})

    def _trace_decision(self, op_id, committed: bool, role: str) -> None:
        if self.server.tracer.enabled:
            self.server.tracer.event(
                "decision", self.server.node_id, cat="protocol",
                op_id=op_id, committed=committed, role=role,
            )
