"""OFS-batched — serial execution with batched write-back (§IV.C).

"Similar to OFS, in OFS-batched, the sub-ops of a cross-server
operation are serially performed on affected servers; however, instead
of synchronously writing the updated objects into BDB for every sub-op,
the updated objects are logged and the batched modifications are lazily
flushed into BDB."

The paper uses this baseline to isolate how much of Cx's win comes from
batched write-back alone (≥15% in their runs) versus concurrent
execution (the rest).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List

from repro.net.message import Message, MessageKind
from repro.obs.tracer import PHASE_EXEC, PHASE_RECORD
from repro.protocols.base import ServerRole
from repro.protocols.serial import SerialProtocol
from repro.sim import Process
from repro.storage.wal import LogRecord, OpId

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.server import MetadataServer

#: Record type for a logged object image awaiting write-back.
OBJ_RECORD = "OBJ"


class SerialBatchedRole(ServerRole):
    """SE message flow + log-then-defer persistence."""

    def __init__(self, server: "MetadataServer", cluster: "Cluster") -> None:
        super().__init__(server, cluster)
        #: Operations whose object images sit in the log awaiting flush.
        self._logged_ops: List[OpId] = []
        self._timer: Process = None  # type: ignore[assignment]
        self.server.wal.on_full = self.flush_now

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._timer is None or self._timer.triggered:
            self._timer = self.server.spawn(self._timer_loop())
        self.server.wal.on_full = self.flush_now

    def on_crash(self) -> None:
        super().on_crash()
        self._logged_ops.clear()

    def _timer_loop(self):
        period = self.params.commit_timeout or 10.0
        while True:
            yield self.sim.timeout(period)
            yield from self._flush()

    def flush_now(self) -> None:
        self.server.spawn(self._flush())

    def _flush(self):
        """Flush the dirty KV set, then prune the covered log records."""
        covered = self._logged_ops
        self._logged_ops = []
        done = self.server.kv.flush()
        if done is not None:
            yield done
        for op_id in covered:
            self.server.wal.prune_op(op_id)

    # -- message handling ------------------------------------------------------

    def handle(self, msg: Message) -> Generator:
        if msg.kind is MessageKind.REQ:
            yield from self._handle_req(msg)
        elif msg.kind is MessageKind.CLEAR:
            yield from self._handle_clear(msg)
        else:  # pragma: no cover - protocol error
            self.reject(msg)

    def _handle_req(self, msg: Message) -> Generator:
        subop = msg.payload["subop"]
        tracer = self.server.tracer
        if subop.is_readonly:
            read_span = (
                tracer.begin(
                    "exec", self.server.node_id, op_id=subop.op_id,
                    phase=PHASE_EXEC, parent=msg.span_id,
                    role=subop.role, readonly=True,
                )
                if tracer.enabled else None
            )
            res = yield from self.execute_readonly(subop)
            read_sid = None
            if read_span is not None:
                read_span.end(ok=res.ok)
                read_sid = read_span.span_id
            self.reply_result(msg, res, span_id=read_sid)
            return
        exec_span = (
            tracer.begin(
                "exec", self.server.node_id, op_id=subop.op_id,
                phase=PHASE_EXEC, parent=msg.span_id, role=subop.role,
            )
            if tracer.enabled else None
        )
        yield self.sim.timeout(self.params.cpu_subop)
        res = self.server.shard.execute(subop, self.sim.now)
        if exec_span is not None:
            exec_span.end(ok=res.ok, errno=res.errno)
        last_sid = exec_span.span_id if exec_span is not None else None
        if res.ok:
            # Durability via the group-committed log; BDB write-back is
            # deferred to the next batched flush.
            record = LogRecord(
                subop.op_id,
                OBJ_RECORD,
                payload={"updates": res.updates},
                size=self.params.log_record_size * max(1, len(res.updates)),
            )
            self._logged_ops.append(subop.op_id)
            self.server.shard.apply_deferred(res.updates)
            if tracer.enabled:
                record_span = tracer.begin(
                    "result-record", self.server.node_id, op_id=subop.op_id,
                    phase=PHASE_RECORD, parent=last_sid,
                    role=subop.role, size=record.size,
                )
                tracer.ambient = record_span.span_id
                append_done = self.server.wal.append_h(record)
                tracer.ambient = None
                yield append_done
                record_span.end()
                last_sid = record_span.span_id
            else:
                yield self.server.wal.append_h(record)
            self._check_threshold()
        self.reply_result(msg, res, span_id=last_sid)

    def _handle_clear(self, msg: Message) -> Generator:
        undo = msg.payload["undo"]
        yield self.sim.timeout(self.params.cpu_subop)
        self.server.shard.apply_deferred(undo)
        record = LogRecord(
            msg.payload["op_id_clear"],
            OBJ_RECORD,
            payload={"updates": undo},
            size=self.params.log_record_size * max(1, len(undo)),
        )
        self._logged_ops.append(msg.payload["op_id_clear"])
        yield self.server.wal.append_h(record)
        self.server.send_reply(msg, MessageKind.RESP, {"ok": True})

    def _check_threshold(self) -> None:
        threshold = self.params.commit_threshold
        if threshold is not None and len(self._logged_ops) >= threshold:
            self.flush_now()


class SerialBatchedProtocol(SerialProtocol):
    """OFS-batched: SE's client driver, batched write-back on servers."""

    name = "ofs-batched"

    def make_role(self, server: "MetadataServer", cluster: "Cluster") -> SerialBatchedRole:
        return SerialBatchedRole(server, cluster)
