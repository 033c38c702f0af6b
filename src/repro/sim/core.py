"""The simulator: a virtual clock plus one timeline of integer handles.

Events are logically ordered by ``(time, priority, sequence)``; the
sequence number is assigned at scheduling time, so runs are fully
reproducible for fixed RNG seeds.

* **One currency.**  Everything queued is an integer *handle* indexing
  parallel state columns (``_ast`` state flags, ``_aval`` value or
  exception, ``_acb`` the single callback, ``_aq`` lane sequence).  A
  handle is recycled onto a free list the moment its dispatch
  completes, so the columns stop growing once a replay reaches its
  high-water mark.  Internal single-waiter events (timeouts, store
  wakeups, process bootstraps, message deliveries) are bare handles; an
  :class:`~repro.sim.events.Event` — kept where user code holds a
  reference across the fire — rides a handle whose callback is the
  event's own ``_fire``.  Both burn exactly one sequence number per
  trigger, so mixing them cannot perturb the schedule.

* **Two lanes and a heap.**  ``delay == 0`` schedules sort after every
  queued entry of the instant and before everything later, so they go
  to a FIFO deque per priority; real delays go to a ``heapq`` of
  ``(time, priority, seq, handle)`` tuples.

* **One loop.**  :meth:`Simulator._drive` is the only pop + dispatch
  body; ``run``, ``run_until``, ``step`` and the event-index probe are
  stop conditions on it.  Lane entries only need arbitrating against
  the heap while the heap's front is due at the current instant, which
  can only change when the heap is popped — so the loop carries that
  fact in a local instead of testing it per event.

* **Periodic timers the loop can skip.**  A :class:`Periodic` re-arms
  itself from a handle callback and registers each armed tick in
  ``_periodics``.  When ``run(until)`` finds nothing queued but armed
  ticks of timers that all report themselves idle, it replays those
  ticks (same times, same sequence numbers, same event count) without
  dispatching them — see :meth:`Simulator._skip_idle_ticks`.

Pop order, and therefore every replay result, is pinned by the
golden-replay suite (``tests/golden``).  Nothing outside ``repro.sim``
may touch the columns, lanes, heap or tick registry
(``tests/sim/test_kernel_private``).

Typical usage::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        return "done"

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "done"
"""

from __future__ import annotations

import gc
from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush, heapreplace
from typing import Any, Callable, Generator, Iterable, Iterator, Optional, Union

from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    H_DEFUSED,
    H_FAIL,
    H_OK,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    QueueDrained,
    SimulationError,
)
from repro.sim.process import Process

__all__ = ["Periodic", "QueueDrained", "SimulationError", "Simulator", "kernel_sprint"]


@contextmanager
def kernel_sprint() -> Iterator[None]:
    """Pause the cyclic garbage collector for the duration of a replay.

    The kernel's hot path is cycle-free (processes and handler drivers
    drop their self-references on completion and die by refcount), so
    the collector's periodic full-generation scans are pure overhead
    while a replay is driving millions of events.  Pausing it is worth
    ~10-20% of replay wall time and has no effect on simulation results.

    Only touches the collector if it was enabled on entry (so nested
    sprints and externally-disabled GC are safe); re-enables it on exit.
    It collects once on *entry*: at exit the caller still holds the
    finished replay's cluster (tens of thousands of cyclic objects), so
    a collect there frees nothing, and the dead cluster would otherwise
    live on through the next sprint, which is exactly when the
    collector is off.
    """
    if not gc.isenabled():
        yield
        return
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Periodic:
    """Calls ``tick()`` every ``period`` of virtual time while started.

    Costs exactly the timeline entries of the generator loop
    ``while True: yield sim.timeout_h(period); tick()`` run as a
    :class:`~repro.sim.process.Process` — fault schedules address events
    by index, so the accounting is contract:

    * ``start()`` queues an urgent bootstrap that arms the first tick;
    * every tick re-arms *after* its body, burning one sequence number;
    * ``stop()`` queues an urgent halt that detaches the armed tick and
      queues one normal completion entry; the detached tick stays in
      the heap and dispatches into nothing.

    **Idle contract.**  With the optional pair given, ``idle()`` true
    means ``tick()`` would change nothing but its own fire count, and
    that this stays so until a non-periodic entry is queued.  An idle
    tick calls ``skipped(1)`` instead of ``tick()``; when nothing but
    idle ticks is queued, ``Simulator.run(until)`` replays them without
    dispatching and reports each timer's share through one
    ``skipped(k)`` (see ``Simulator._skip_idle_ticks``).
    """

    __slots__ = ("sim", "period", "tick", "idle", "skipped", "running", "_h")

    def __init__(
        self, sim: "Simulator", period: float, tick: Callable[[], None],
        idle: Optional[Callable[[], bool]] = None,
        skipped: Optional[Callable[[int], None]] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self.sim = sim
        self.period = period
        self.tick = tick
        self.idle = idle
        self.skipped = skipped
        #: Between ``start()`` and ``stop()``; both are idempotent.
        self.running = False
        #: The armed tick's handle (stale once a stop() detached it).
        self._h = -1

    def start(self) -> None:
        if not self.running:
            self.running = True
            self.sim.init_h(self._arm)

    def stop(self) -> None:
        if self.running:
            self.running = False
            self.sim.init_h(self._halt)

    def _arm(self, _h: int) -> None:
        sim = self.sim
        self._h = h = sim.timeout_h(self.period, callback=self._on_tick)
        sim._periodics[h] = self

    def _on_tick(self, h: int) -> None:
        del self.sim._periodics[h]
        if self.idle is not None and self.idle():
            self.skipped(1)  # type: ignore[misc]
        else:
            self.tick()
        self._arm(h)

    def _halt(self, _h: int) -> None:
        # Urgent entries pop in FIFO order, so the bootstrap of the
        # start() before this stop() has run and a tick is armed.
        sim = self.sim
        del sim._periodics[self._h]
        sim._acb[self._h] = None
        sim.timeout_h(0.0)  # the completion entry of the loop this replaces


class Simulator:
    """Deterministic discrete-event simulator.

    Events are processed in ``(time, priority, sequence)`` order; see
    the module docstring for how the timeline realizes that order.
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: Delayed entries: ``(time, priority, seq, handle)`` tuples.
        self._heap: list[tuple] = []
        #: delay=0 fast lanes; every queued handle has ``time == now``.
        self._lane_urgent: deque = deque()
        self._lane_normal: deque = deque()
        self._seq = 0
        # -- handle state columns ---------------------------------------
        #: state flags (0 pending, else H_OK / H_FAIL / H_DEFUSED bits)
        self._ast: list[int] = []
        #: success value, or the failure exception when H_FAIL is set
        self._aval: list = []
        #: the single callback (``cb(handle)``), or None
        self._acb: list = []
        #: lane sequence stamp (arbitration vs. heap entries due now)
        self._aq: list[int] = []
        #: recycled handles; popped before the columns ever grow again
        self._afree: list[int] = []
        #: armed periodic ticks: heap handle -> its :class:`Periodic`
        self._periodics: dict[int, Periodic] = {}
        # -- event accounting -------------------------------------------
        #: entries popped off the timeline and dispatched
        self._n_dispatched = 0
        #: logical events not popped one by one: idle periodic ticks
        #: replayed in place (fed by ``_skip_idle_ticks`` alone)
        self._n_extra = 0
        #: event index at which the armed probe fires; -1 when disarmed
        self._probe_at = -1
        self._probe_cb: Optional[Callable[[], None]] = None

    # -- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """The *logical* event count: timeline entries dispatched, plus
        the idle ticks a fast-forward replayed.  Fuzz fault coordinates,
        the probe index and the golden counts are written in this unit,
        so it does not depend on whether idle ticks were popped."""
        return self._n_dispatched + self._n_extra

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if idle."""
        if self._lane_urgent or self._lane_normal:
            return self._now  # lane entries are due at the current instant
        return self._heap[0][0] if self._heap else float("inf")

    # -- scheduling -----------------------------------------------------

    def _enqueue(self, h: int, delay: float, priority: int) -> None:
        """Queue triggered handle ``h``, burning one sequence number."""
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            self._aq[h] = seq
            if priority:  # PRIORITY_NORMAL
                self._lane_normal.append(h)
            else:
                self._lane_urgent.append(h)
        else:
            heappush(self._heap, (self._now + delay, priority, seq, h))

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        """Enqueue a triggered event for processing ``delay`` from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        h = self.event_h()
        self._ast[h] = H_OK  # a failed Event reports itself from _fire
        self._acb[h] = event._fire
        self._enqueue(h, delay, priority)

    @property
    def seq(self) -> int:
        """The next sequence number to be assigned (read-only): two
        equal readings prove nothing was scheduled in between."""
        return self._seq

    # -- handle API -------------------------------------------------------
    #
    # Handles are single-waiter, internal-use events: created, yielded /
    # waited at most once, and never referenced after their dispatch (the
    # slot is recycled the moment the dispatch completes).

    def event_h(self) -> int:
        """A pending handle (the handle analogue of :meth:`event`)."""
        if self._afree:
            return self._afree.pop()  # recycled slots are reset on recycle
        self._ast.append(0)
        self._aval.append(None)
        self._acb.append(None)
        self._aq.append(0)
        return len(self._ast) - 1

    def timeout_h(
        self,
        delay: float,
        value: Any = None,
        callback: Optional[Callable[[int], None]] = None,
    ) -> int:
        """A handle that fires ``delay`` from now (cf. :meth:`timeout`).

        ``callback`` pre-attaches the waiter for callers that dispatch
        on the handle instead of yielding it.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        # event_h() and _enqueue(), inlined: with Store.put's succeed_h
        # this is the most frequent scheduling call of a replay.
        afree = self._afree
        h = afree.pop() if afree else self.event_h()
        self._ast[h] = H_OK
        self._aval[h] = value
        self._acb[h] = callback
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            self._aq[h] = seq
            self._lane_normal.append(h)
        else:
            heappush(self._heap, (self._now + delay, PRIORITY_NORMAL, seq, h))
        return h

    def at_h(self, when: float, callback: Callable[[int], None]) -> int:
        """A handle firing at exactly ``when`` (> now), for deadline tables."""
        if when <= self._now:
            raise ValueError(f"deadline {when!r} is not after now={self._now!r}")
        h = self.event_h()
        self._ast[h] = H_OK
        self._acb[h] = callback
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (when, PRIORITY_NORMAL, seq, h))
        return h

    def succeed_h(self, h: int, value: Any = None) -> None:
        """Trigger pending handle ``h`` successfully."""
        self._ast[h] = H_OK
        self._aval[h] = value
        self._aq[h] = self._seq  # _enqueue(h, 0.0, PRIORITY_NORMAL), inlined
        self._seq += 1
        self._lane_normal.append(h)

    def fail_h(self, h: int, exc: BaseException, defused: bool = False) -> None:
        """Trigger pending handle ``h`` with an exception."""
        self._ast[h] = (H_FAIL | H_DEFUSED) if defused else H_FAIL
        self._aval[h] = exc
        self._enqueue(h, 0.0, PRIORITY_NORMAL)

    def init_h(self, callback: Callable[[int], None]) -> int:
        """An urgent, already-succeeded handle with ``callback`` attached.

        Dispatches at the current instant ahead of normal-priority
        traffic: a process bootstrap, a timer arming itself.
        """
        h = self.event_h()
        self._ast[h] = H_OK
        self._acb[h] = callback
        self._enqueue(h, 0.0, PRIORITY_URGENT)
        return h

    def value_h(self, h: int) -> Any:
        """The value (or failure exception) of a triggered handle."""
        return self._aval[h]

    def cancel_h(self, h: int) -> None:
        """Recycle a still-pending handle that will never be triggered.

        Crash paths use this for handles parked on destroyed structures
        (a drained WAL flush queue, capacity waiters that will never be
        woken): a pending handle is in neither the lanes nor the heap,
        so the slot can go straight back to the free list.  Without
        this, every crash leaks a slot — with a stale callback that
        could fire against whatever is recycled into it later.

        No-op when ``h`` has already been triggered (it is queued and
        will recycle itself at dispatch).
        """
        if self._ast[h] == 0:
            self._acb[h] = None
            self._aval[h] = None
            self._afree.append(h)

    # -- either-currency completion ---------------------------------------

    def succeed_pending(self, done: Union[Event, int], value: Any = None) -> bool:
        """Succeed ``done`` — an Event or a handle — unless already triggered.

        Returns whether it fired.  For producers (stores, the disk, the
        log) whose consumers choose the currency.
        """
        if type(done) is int:
            if self._ast[done]:
                return False
            self.succeed_h(done, value)
        elif done.triggered:
            return False
        else:
            done.succeed(value)
        return True

    def cancel_pending(self, done: Union[Event, int]) -> None:
        """:meth:`cancel_h` for either currency (Events need no recycling)."""
        if type(done) is int:
            self.cancel_h(done)

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` seconds from now."""
        return Event(self).succeed(value, delay)

    def process(self, generator: Generator) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when every event in ``events`` has."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when the first of ``events`` does."""
        return AnyOf(self, events)

    # -- event-index probe ------------------------------------------------

    def arm_probe(self, at_index: int, callback: Callable[[], None]) -> None:
        """Fire ``callback`` once ``events_processed`` reaches ``at_index``.

        The fault explorer's injection point: the callback runs *between*
        events, at the first instant the processed-event count is
        ``>= at_index``.  The callback may re-arm the probe to chain
        injections.  Only one probe can be armed at a time.  A drive
        call notices the probe when it starts (arm it between calls or
        from the probe callback, not from an event callback) and
        publishes exact counts per event while it is armed; an unarmed
        probe costs nothing per event.
        """
        if at_index < 0:
            raise ValueError(f"negative probe index {at_index!r}")
        if self._probe_at >= 0:
            raise RuntimeError("an event-index probe is already armed")
        self._probe_at = at_index
        self._probe_cb = callback

    def disarm_probe(self) -> None:
        """Cancel the armed probe (no-op if none is armed)."""
        self._probe_at = -1
        self._probe_cb = None

    # -- execution --------------------------------------------------------

    def _drive(self, stop: Optional[Event], until: Optional[float],
               steps: int = -1) -> None:
        """The one pop + dispatch loop.

        Runs until ``stop`` is processed, the next entry lies beyond
        ``until``, ``steps`` entries were dispatched, or the queue
        drains — which raises :class:`QueueDrained` if ``stop`` or
        ``steps`` promised more.
        """
        heap = self._heap
        lane_u = self._lane_urgent
        lane_n = self._lane_normal
        ast = self._ast
        aval = self._aval
        acb = self._acb
        aq = self._aq
        afree = self._afree
        # True while the heap's front is due at this instant and so must
        # be arbitrated against lane traffic.  delay>0 schedules strictly
        # later, so only a heap pop can change it.
        due = heap[0][0] <= self._now if heap else False
        # Per-event bookkeeping (exact counts for the probe, the step
        # budget) hides behind one flag that is false on the replay path.
        slow = steps >= 0 or self._probe_at >= 0
        # Only run(until) fast-forwards idle ticks: under run_until the
        # test would cost every heap pop of a replay, while a bounded
        # wait dispatches at most one window of idle ticks.
        skip = stop is None
        n = 0  # dispatched here; published on exit (an attribute store
        #        per event is measurable)
        try:
            while True:
                if slow:
                    self._n_dispatched += n
                    n = 0
                    if self._probe_at >= 0:
                        if self._n_dispatched + self._n_extra >= self._probe_at:
                            probe = self._probe_cb
                            self.disarm_probe()
                            probe()  # type: ignore[misc]  # may re-arm
                            continue
                    elif steps < 0:
                        slow = False
                    if steps == 0:
                        break
                    if steps > 0:
                        steps -= 1
                if stop is not None and stop.callbacks is None:
                    break
                # A lane's front pops unless the heap's front is due now
                # and orders first: an urgent heap entry beats the urgent
                # lane by sequence and the normal lane outright; a normal
                # one beats the normal lane by sequence.
                if lane_u and not (
                    due and heap[0][1] == 0 and heap[0][2] < aq[lane_u[0]]
                ):
                    x = lane_u.popleft()
                elif lane_n and not (
                    due and (heap[0][1] == 0 or heap[0][2] < aq[lane_n[0]])
                ):
                    x = lane_n.popleft()
                elif heap:
                    if until is not None and (
                        heap[0][0] > until
                        or skip and not (slow or lane_u or lane_n)
                        and len(heap) == len(self._periodics)
                        and self._skip_idle_ticks(until)
                    ):
                        break
                    node = heappop(heap)
                    self._now = now = node[0]
                    x = node[3]
                    due = heap[0][0] <= now if heap else False
                elif stop is None and steps < 0:
                    break
                else:
                    what = "the next step" if stop is None else repr(stop)
                    raise QueueDrained(f"queue drained before {what} was processed")
                n += 1
                cb = acb[x]
                if cb is not None:
                    acb[x] = None
                    cb(x)
                if ast[x] & 6 == 2:  # H_FAIL and not H_DEFUSED
                    exc = aval[x]
                    raise SimulationError(
                        f"unhandled failure of handle {x} at "
                        f"t={self._now:.6f}: {exc!r}"
                    ) from exc
                ast[x] = 0
                aval[x] = None
                afree.append(x)
        finally:
            self._n_dispatched += n

    def _skip_idle_ticks(self, until: float) -> bool:
        """Replay every tick due by ``until`` without dispatching it.

        ``_drive`` calls this with both lanes empty, no probe or step
        budget active, and every heap entry an armed periodic tick (an
        armed tick is always in the heap, so equal sizes prove it).  If
        every such timer is also idle, nothing can happen before
        ``until`` but ticks that change nothing, and by the idle
        contract that stays true: each tick is rotated in place to the
        time (``t + period``, accumulated as dispatch would) and
        sequence number its re-arm would have taken, counted as a
        logical event, and reported through one ``skipped(k)`` per
        timer.  Returns False, touching nothing, if any timer is busy.
        """
        timers = self._periodics
        if not all(t.idle is not None and t.idle() for t in timers.values()):
            return False
        heap = self._heap
        seq = self._seq
        ticks = dict.fromkeys(timers, 0)
        t, _prio, _seq, h = heap[0]
        while t <= until:
            self._now = t
            heapreplace(heap, (t + timers[h].period, PRIORITY_NORMAL, seq, h))
            seq += 1
            ticks[h] += 1
            t, _prio, _seq, h = heap[0]
        self._n_extra += seq - self._seq
        self._seq = seq
        for h, k in ticks.items():
            if k:
                timers[h].skipped(k)
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until virtual time ``until``.

        With ``until`` given, the clock is advanced to exactly ``until``
        even if the queue drains early, so periodic measurements line up.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until!r} is in the past (now={self._now!r})")
        self._drive(None, until)
        if until is not None:
            self._now = until

    def run_until(self, event: Event, until: Optional[float] = None) -> Any:
        """Run until ``event`` is processed; return its value.

        Acts as the event's waiter: a failure is defused here and
        re-raised to the caller instead of crashing the simulation.
        Raises :class:`QueueDrained` if the queue empties first.  With
        ``until``, also returns (None, the event still pending: check
        ``event.processed``) once the next entry lies beyond ``until``;
        the clock stays at the last entry dispatched.
        """
        if event.callbacks is not None:
            event.callbacks.append(Event.defuse)
        self._drive(event, until)
        if event.callbacks is not None:
            return None
        if event._ok is False:
            raise event._exc  # type: ignore[misc]
        return event._value

    def step(self) -> None:
        """Process exactly one event (:class:`QueueDrained` if idle)."""
        self._drive(None, None, 1)
