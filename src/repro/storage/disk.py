"""Single-spindle disk model.

One 7200 rpm SATA disk per metadata server (the paper's testbed).  The
model charges a positioning cost per non-adjacent extent (seek) or a
settle cost when the access continues from the current head position,
plus a bandwidth term.  Requests are serviced strictly FIFO by a single
service process; concurrency shows up as queueing delay, which is what
makes synchronous per-operation writes the bottleneck for the OFS
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.params import SimParams
from repro.sim import Event, Simulator, Store


class Extent:
    """A contiguous byte range on disk.

    A hand-written ``__slots__`` value class rather than a frozen
    dataclass: replays build one per KV row and per WAL flush, and the
    frozen-dataclass ``__init__`` (``object.__setattr__`` per field plus
    ``__post_init__``) costs several times this constructor.
    """

    __slots__ = ("offset", "nbytes")

    def __init__(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes <= 0:
            raise ValueError(f"bad extent Extent({offset}, {nbytes})")
        self.offset = offset
        self.nbytes = nbytes

    @property
    def end(self) -> int:
        return self.offset + self.nbytes

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is Extent
            and self.offset == other.offset
            and self.nbytes == other.nbytes
        )

    def __hash__(self) -> int:
        return hash((self.offset, self.nbytes))

    def __repr__(self) -> str:
        return f"Extent(offset={self.offset}, nbytes={self.nbytes})"


@dataclass
class DiskStats:
    """Cumulative disk activity, for experiment reporting."""

    requests: int = 0
    extents: int = 0
    seeks: int = 0
    settles: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    busy_time: float = 0.0

    def reset(self) -> None:
        self.requests = 0
        self.extents = 0
        self.seeks = 0
        self.settles = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.busy_time = 0.0


class Disk:
    """FIFO-serviced disk with positional cost model.

    ``submit`` enqueues a (multi-extent) request and returns an event
    that succeeds when the IO completes.  Extents inside one request
    should already be elevator-sorted/merged (see
    :func:`repro.storage.iosched.merge_extents`); the disk charges one
    positioning cost per extent.
    """

    #: Head distance (bytes) considered "adjacent" — settle, not seek.
    ADJACENCY = 4096

    def __init__(self, sim: Simulator, params: SimParams, name: str = "disk") -> None:
        self.sim = sim
        self.params = params
        self.name = name
        self.head = 0
        self.stats = DiskStats()
        self._queue: Store = Store(sim)
        self._service_proc = sim.process(self._service_loop())

    # -- public API --------------------------------------------------------

    def submit(
        self, extents: Sequence[Extent], write: bool = True
    ) -> Event:
        """Queue an IO request; the returned event fires at completion."""
        if not extents:
            raise ValueError("empty IO request")
        done = Event(self.sim)
        self._queue.put((list(extents), write, done))
        return done

    def submit_h(self, extents: Sequence[Extent], write: bool = True) -> int:
        """Handle analogue of :meth:`submit` for single-waiter callers.

        The returned anonymous handle must be yielded before it fires
        and never referenced after; callers that attach completion
        callbacks (the KV store's durability hooks) must keep using
        :meth:`submit`.
        """
        if not extents:
            raise ValueError("empty IO request")
        done = self.sim.event_h()
        self._queue.put((list(extents), write, done))
        return done

    def queue_depth(self) -> int:
        return len(self._queue)

    # -- service -----------------------------------------------------------

    def service_time(self, extents: Sequence[Extent]) -> float:
        """Pure function of the cost model (no state change)."""
        head = self.head
        total = 0.0
        for ext in extents:
            if abs(ext.offset - head) <= self.ADJACENCY:
                total += self.params.disk_settle
            else:
                total += self.params.disk_seek
            total += ext.nbytes * self.params.disk_byte_time
            head = ext.end
        return total

    def _service_loop(self):
        while True:
            extents, write, done = yield self._queue.get_h()
            duration = 0.0
            for ext in extents:
                if abs(ext.offset - self.head) <= self.ADJACENCY:
                    duration += self.params.disk_settle
                    self.stats.settles += 1
                else:
                    duration += self.params.disk_seek
                    self.stats.seeks += 1
                duration += ext.nbytes * self.params.disk_byte_time
                self.head = ext.end
                self.stats.extents += 1
                if write:
                    self.stats.bytes_written += ext.nbytes
                else:
                    self.stats.bytes_read += ext.nbytes
            self.stats.requests += 1
            self.stats.busy_time += duration
            yield self.sim.timeout_h(duration)
            self.sim.succeed_pending(done)
