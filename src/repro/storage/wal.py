"""Log-structured operation log.

Cx stores its Result/Commit/Abort/Complete records in "a log-structured
file ... and build[s] an index on top of it to accelerate searches"
(paper §IV.A).  This module models that file:

* appends are sequential and *group committed*: all records queued while
  a flush is in flight are written by the next single disk request, so
  concurrent synchronous appends amortize to one settle + bandwidth;
* an in-memory index maps operation ids to their records;
* *valid records* (records of operations whose commitment is still
  pending) occupy log space; when the log hits its upper limit, new
  appends block until pruning frees space — the effect Figure 7(a)
  measures;
* pruning follows the paper's rule: the coordinator prunes an operation
  once its Complete-Record exists, the participant once its
  Commit/Abort-Record exists (enforced by the protocol layer, which
  calls :meth:`prune_op`).

The log's contents survive crashes; only in-memory state is volatile.
Recovery re-reads the valid region sequentially (see
:meth:`scan_cost`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.params import SimParams
from repro.sim import Event, Simulator, Store
from repro.storage.disk import Disk, Extent

#: Operation id: (client id, process id, sequence number) — paper §III.A.
OpId = Tuple[int, int, int]


class LogRecord:
    """One record in the operation log.

    ``__slots__`` class (not a dataclass): one is built per executed
    sub-op on the result-record path.
    """

    __slots__ = ("op_id", "rtype", "payload", "size", "invalid")

    def __init__(
        self,
        op_id: OpId,
        rtype: str,
        payload: Optional[Dict[str, Any]] = None,
        size: int = 128,
        invalid: bool = False,
    ) -> None:
        self.op_id = op_id
        self.rtype = rtype
        self.payload = {} if payload is None else payload
        self.size = size
        #: Invalidated records no longer count as valid but remain on
        #: disk until pruning (Cx invalidates Result-Records of
        #: re-ordered sub-ops during disordered-conflict handling).
        self.invalid = invalid

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is LogRecord
            and self.op_id == other.op_id
            and self.rtype == other.rtype
            and self.payload == other.payload
            and self.size == other.size
            and self.invalid == other.invalid
        )

    __hash__ = None  # type: ignore[assignment]  # mutable, like the dataclass

    def __repr__(self) -> str:
        return (
            f"LogRecord(op_id={self.op_id!r}, rtype={self.rtype!r}, "
            f"payload={self.payload!r}, size={self.size!r}, "
            f"invalid={self.invalid!r})"
        )


class WriteAheadLog:
    """Append-only, group-committed, capacity-limited log file."""

    def __init__(
        self,
        sim: Simulator,
        disk: Disk,
        params: SimParams,
        base_offset: int = 0,
        capacity: Optional[int] = None,
        name: str = "wal",
        metrics=None,  # Optional[repro.obs.registry.MetricsRegistry]
        tracer: Tracer = NULL_TRACER,
        trace_node: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.disk = disk
        self.params = params
        self.name = name
        self.base_offset = base_offset
        #: None means unlimited (used by the Fig. 9 sensitivity runs).
        self.capacity = capacity
        self._tail = base_offset
        self._index: Dict[OpId, List[LogRecord]] = {}
        self.valid_bytes = 0
        self.appends = 0
        self.flushes = 0
        self.blocked_appends = 0
        self._flush_queue: Store = Store(sim)
        #: Records admitted but not yet durable (lost on crash).
        self._unflushed: List[LogRecord] = []
        #: (record, done) pairs blocked on log space; ``done`` is an
        #: Event from :meth:`append` or an int handle from :meth:`append_h`.
        self._space_waiters: Deque[Tuple[LogRecord, Any]] = deque()
        #: Hook invoked (once per blocking append) when the log is full;
        #: the Cx server uses it to launch an urgent pruning commitment.
        self.on_full: Optional[Callable[[], None]] = None
        #: Observability, passed by the owning server (a standalone WAL
        #: has none).  ``trace_node`` is the node id of trace records:
        #: the server's own, so log events land on the server's row.
        self.tracer = tracer
        self.trace_node = trace_node if trace_node is not None else name
        #: Meter handles, resolved once — a meter never written reports
        #: nothing: (wal.appends counter, wal.valid_bytes gauge),
        #: (wal.syncs counter, sync_bytes + sync_records histograms),
        #: the wal.blocked_appends counter.
        self._append_meters = self._flush_meters = self._blocked_meter = None
        if metrics is not None:
            self._append_meters = (
                metrics.counter("wal.appends"),
                metrics.gauge("wal.valid_bytes"),
            )
            self._flush_meters = (
                metrics.counter("wal.syncs"),
                metrics.histogram("wal.sync_bytes"),
                metrics.histogram("wal.sync_records"),
            )
            self._blocked_meter = metrics.counter("wal.blocked_appends")
        self._flusher = sim.process(self._flush_loop())

    # -- queries -----------------------------------------------------------

    def records_of(self, op_id: OpId) -> List[LogRecord]:
        return list(self._index.get(op_id, ()))

    def has_record(self, op_id: OpId, rtype: str) -> bool:
        return any(r.rtype == rtype and not r.invalid for r in self._index.get(op_id, ()))

    def ops_in_log(self) -> List[OpId]:
        return list(self._index.keys())

    @property
    def free_bytes(self) -> Optional[int]:
        if self.capacity is None:
            return None
        return self.capacity - self.valid_bytes

    # -- appends -----------------------------------------------------------

    def append(self, record: LogRecord, urgent: bool = False) -> Event:
        """Durably append ``record``; event fires once it is on disk.

        Blocks (queues) while the log is at capacity, after notifying
        ``on_full`` so the owner can trigger pruning.  ``urgent``
        appends bypass the capacity check: commitment records
        (Commit/Abort/Complete) must never block, because they are what
        enables pruning — blocking them would deadlock a full log.
        """
        done = Event(self.sim)
        self._append(record, done, urgent)
        return done

    def append_h(self, record: LogRecord, urgent: bool = False) -> int:
        """Handle analogue of :meth:`append` for callers that yield it.

        Returns an anonymous event handle instead of an :class:`Event`;
        the contract is the usual one — single waiter, yielded before it
        fires, never referenced after.  Aggregation (``all_of`` over a
        batch of commitment appends) must keep using :meth:`append`.
        """
        done = self.sim.event_h()
        self._append(record, done, urgent)
        return done

    def _append(self, record: LogRecord, done, urgent: bool) -> None:
        if (not urgent and self.capacity is not None
                and self.valid_bytes + record.size > self.capacity):
            self.blocked_appends += 1
            if self._blocked_meter is not None:
                self._blocked_meter.inc()
            if self.tracer.enabled and self.tracer.sampled(record.op_id):
                self.tracer.event(
                    "wal.blocked", self.trace_node, cat="wal",
                    op_id=record.op_id, parent=self.tracer.ambient,
                    rtype=record.rtype,
                )
            self._space_waiters.append((record, done))
            if self.on_full is not None:
                self.on_full()
            return
        self._admit(record, done)

    def _admit(self, record: LogRecord, done) -> None:
        # dict.get over setdefault: setdefault builds a throwaway empty
        # list on every call, and appends dominate the WAL's profile.
        recs = self._index.get(record.op_id)
        if recs is None:
            self._index[record.op_id] = [record]
        else:
            recs.append(record)
        self.valid_bytes += record.size
        self.appends += 1
        m = self._append_meters
        if m is not None:
            m[0].inc()
            m[1].set(self.valid_bytes)
        if self.tracer.enabled and self.tracer.sampled(record.op_id):
            self.tracer.event(
                "wal.append", self.trace_node, cat="wal",
                op_id=record.op_id, parent=self.tracer.ambient,
                rtype=record.rtype, size=record.size,
            )
        self._unflushed.append(record)
        self._flush_queue.put((record, done))

    # -- invalidation and pruning -------------------------------------------

    def invalidate(self, record: LogRecord) -> None:
        """Mark a record invalid (space freed logically at prune time).

        Invalidation is a memory operation; the on-disk bytes are
        reclaimed when the owning operation is pruned.
        """
        record.invalid = True

    def prune_op(self, op_id: OpId) -> int:
        """Drop every record of ``op_id``; returns bytes freed."""
        records = self._index.pop(op_id, None)
        if not records:
            return 0
        freed = sum(r.size for r in records)
        self.valid_bytes -= freed
        if self._append_meters is not None:
            self._append_meters[1].set(self.valid_bytes)
        if self.tracer.enabled and self.tracer.sampled(op_id):
            self.tracer.event(
                "wal.prune", self.trace_node, cat="wal",
                op_id=op_id, freed=freed,
            )
        self._wake_waiters()
        return freed

    def _wake_waiters(self) -> None:
        while self._space_waiters:
            record, done = self._space_waiters[0]
            if (
                self.capacity is not None
                and self.valid_bytes + record.size > self.capacity
            ):
                break
            self._space_waiters.popleft()
            self._admit(record, done)

    # -- failure injection ------------------------------------------------------

    def crash(self) -> None:
        """Lose appends that never completed on disk.

        Both the queued appends and the flusher's in-flight batch are
        dropped (a write whose IO did not finish is treated as torn);
        the index afterwards reflects exactly the recoverable on-disk
        contents, which is what recovery scans.

        Completion handles parked in the flush queue and the capacity
        wait-list are *cancelled* (recycled back to the simulator's
        free list): they can never fire once their queues are drained,
        and leaving them pending would leak an SoA column slot per
        crash — with the stale completion callback still attached to a
        slot a later event could recycle into.
        """
        cancel = self.sim.cancel_pending
        doomed = self._unflushed
        self._unflushed = []
        while len(self._flush_queue):
            _record, done = self._flush_queue.get().value
            cancel(done)
        for record in doomed:
            self.valid_bytes -= record.size
            recs = self._index.get(record.op_id)
            if recs is not None:
                try:
                    recs.remove(record)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if not recs:
                    del self._index[record.op_id]
        while self._space_waiters:
            _record, done = self._space_waiters.popleft()
            cancel(done)
        self.on_full = None

    # -- recovery support ----------------------------------------------------

    def scan_cost(self) -> float:
        """Time to sequentially read and parse the valid log region."""
        io = (
            self.params.disk_seek
            + self.valid_bytes * self.params.disk_byte_time
        )
        nrecords = sum(len(v) for v in self._index.values())
        return io + nrecords * self.params.recovery_record_cpu

    # -- flusher ---------------------------------------------------------------

    def _flush_loop(self):
        queue = self._flush_queue
        value_h = self.sim.value_h
        while True:
            first = yield queue.get_h()
            batch = [first]
            while len(queue):
                # get_h on a non-empty store succeeds synchronously, so
                # the value is readable before the handle dispatches.
                batch.append(value_h(queue.get_h()))
            nbytes = 0
            for rec, _done in batch:
                nbytes += rec.size
            extent = Extent(self._tail, nbytes)
            self._tail += nbytes
            # A sync span is kept only when the batch carries a sampled
            # op's record: sampled operations keep their full causal
            # story, while a sampling tracer thins the per-flush spans
            # (the single biggest always-on event source) with the ops.
            sync_span = (
                self.tracer.begin(
                    "wal.sync", self.trace_node, cat="wal",
                    nbytes=nbytes, nrecords=len(batch),
                )
                if self.tracer.enabled and any(
                    self.tracer.sampled(rec.op_id) for rec, _done in batch
                )
                else None
            )
            yield self.disk.submit_h([extent], write=True)
            self.flushes += 1
            if sync_span is not None:
                sync_span.end()
            m = self._flush_meters
            if m is not None:
                m[0].value += 1  # Counter.inc, inlined (per-flush path)
                m[1].observe(nbytes)
                m[2].observe(len(batch))
            succeed_pending = self.sim.succeed_pending
            for rec, done in batch:
                try:
                    self._unflushed.remove(rec)
                except ValueError:
                    pass  # dropped by a crash while we were writing
                succeed_pending(done)
