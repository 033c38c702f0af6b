"""OFS-batched — serial execution with batched write-back (§IV.C).

"Similar to OFS, in OFS-batched, the sub-ops of a cross-server
operation are serially performed on affected servers; however, instead
of synchronously writing the updated objects into BDB for every sub-op,
the updated objects are logged and the batched modifications are lazily
flushed into BDB."

The paper uses this baseline to isolate how much of Cx's win comes from
batched write-back alone (≥15% in their runs) versus concurrent
execution (the rest).  Here it is exactly that: OFS with one step
swapped — :meth:`SerialBatchedRole.persist` (and the CLEAR undo) log
the object images instead of writing them through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional

from repro.fs.namespace import ExecResult
from repro.fs.ops import SubOp
from repro.net.message import Message, MessageKind
from repro.protocols.serial import SerialProtocol, SerialRole
from repro.sim import Process
from repro.storage.wal import LogRecord, OpId

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.server import MetadataServer

#: Record type for a logged object image awaiting write-back.
OBJ_RECORD = "OBJ"


class SerialBatchedRole(SerialRole):
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
            yield self.sim.timeout_h(period)
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

    # -- persistence ------------------------------------------------------------

    def _log(self, op_id: OpId, updates) -> LogRecord:
        """Apply ``updates`` in memory only and build the log record
        that makes them durable until the next flush."""
        self._logged_ops.append(op_id)
        self.server.shard.apply_deferred(updates)
        return LogRecord(
            op_id,
            OBJ_RECORD,
            payload={"updates": updates},
            size=self.params.log_record_size * max(1, len(updates)),
        )

    def persist(self, subop: SubOp, res: ExecResult, sid: Optional[int]) -> Generator:
        """Durability via the group-committed log; BDB write-back is
        deferred to the next batched flush."""
        record = self._log(subop.op_id, res.updates)
        sid = yield from self.append_record(record, subop, sid)
        threshold = self.params.commit_threshold
        if threshold is not None and len(self._logged_ops) >= threshold:
            self.flush_now()
        return sid

    def _handle_clear(self, msg: Message) -> Generator:
        yield self.sim.timeout_h(self.params.cpu_subop)
        record = self._log(msg.payload["op_id"], msg.payload["undo"])
        yield self.server.wal.append_h(record)
        self.answer(msg, MessageKind.RESP, {"ok": True})


class SerialBatchedProtocol(SerialProtocol):
    """OFS-batched: SE's client half, batched write-back on servers."""

    name = "ofs-batched"

    def make_role(self, server: "MetadataServer", cluster: "Cluster") -> SerialBatchedRole:
        return SerialBatchedRole(server, cluster)
