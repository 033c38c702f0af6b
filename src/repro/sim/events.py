"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot future living inside a single
:class:`~repro.sim.core.Simulator`.  It moves through three states:

* *pending* — created, neither value nor exception set;
* *triggered* — :meth:`Event.succeed` or :meth:`Event.fail` was called
  and a handle carrying the event's ``_fire`` sits in the simulator's
  queue (see :mod:`repro.sim.core`);
* *processed* — the simulator popped that handle and ran the callbacks.

Processes wait on events by ``yield``-ing them; see
:mod:`repro.sim.process`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Simulator

#: Sentinel for "no value set yet"; distinguishes a pending event from one
#: that succeeded with ``None``.
_PENDING = object()

#: Scheduling priority for urgent bookkeeping events (process
#: initialization, timer arming).  Lower sorts earlier at equal timestamps.
PRIORITY_URGENT = 0
#: Default scheduling priority for ordinary events.
PRIORITY_NORMAL = 1

#: Handle state flag bits (the simulator's ``_ast`` column; 0 = pending).
H_OK = 1        #: triggered successfully
H_FAIL = 2      #: triggered with an exception (held in ``_aval``)
H_DEFUSED = 4   #: failure was handled (throw delivered / defused)


class SimulationError(RuntimeError):
    """An event failed with nobody waiting on it."""


class QueueDrained(SimulationError):
    """The queue emptied before the awaited event (or step) was processed."""


class EventAlreadyTriggered(RuntimeError):
    """Raised when ``succeed``/``fail`` is called on a triggered event."""


class Event:
    """A one-shot future scheduled on a simulator.

    Callbacks are callables of one argument (the event itself), invoked
    in registration order when the simulator processes the event.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: ``None`` once processed; a list while callbacks may still be added.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once the simulator has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None while pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception.

        Raises :class:`AttributeError` while the event is pending.
        """
        if not self.triggered:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._exc if self._exc is not None else self._value

    def defuse(self) -> None:
        """Mark a failed event as handled.

        An event that fails without any waiter (and without being
        defused) crashes the simulation run, surfacing lost errors.
        """
        self._defused = True

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``.

        ``delay`` defers processing by that much virtual time.
        """
        if self._value is not _PENDING or self._exc is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim.schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not _PENDING or self._exc is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._ok = False
        self._exc = exc
        self._value = None
        self.sim.schedule(self, delay)
        return self

    def _fire(self, _h: int) -> None:
        """Dispatch callback of the handle this event rides on."""
        callbacks = self.callbacks
        self.callbacks = None  # mark processed
        for cb in callbacks:  # type: ignore[union-attr]
            cb(self)
        if self._ok is False and not self._defused:
            exc = self._exc
            raise SimulationError(
                f"unhandled failure of {self!r} at t={self.sim.now:.6f}: {exc!r}"
            ) from exc

    def trigger(self, other: "Event") -> None:
        """Mirror another triggered event's outcome onto this one.

        ``other`` must already be triggered; mirroring a pending event
        would silently copy the internal ``_PENDING`` sentinel (or a
        ``None`` exception) into this event and corrupt its state.
        """
        if other._value is _PENDING and other._exc is None:
            raise ValueError(
                f"trigger() needs a triggered source event, got {other!r}"
            )
        if other._ok:
            self.succeed(other._value)
        else:
            other.defuse()
            self.fail(other._exc)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim.schedule(self, delay=delay)

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        raise EventAlreadyTriggered("Timeout triggers itself")

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        raise EventAlreadyTriggered("Timeout triggers itself")


class _Condition(Event):
    """Common machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_pending_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: tuple[Event, ...] = tuple(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise ValueError("condition mixes events of different simulators")
        self._pending_count = len(self.events)
        for ev in self.events:
            if ev.processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)  # type: ignore[union-attr]

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every child event has triggered.

    Succeeds with the list of child values (in construction order); if
    any child fails, the condition fails immediately with that child's
    exception and the remaining children are left to run (their
    failures, if any, are defused by their own waiters).  An empty
    AllOf succeeds immediately.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, events)
        if not self.events:
            self.succeed([])

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._exc)  # type: ignore[arg-type]
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self.succeed([ev._value for ev in self.events])


class AnyOf(_Condition):
    """Triggers as soon as the first child event triggers.

    Succeeds with ``(event, value)`` of the first successful child; if
    the first triggering child failed, the condition fails with its
    exception.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, events)
        if not self.events:
            raise ValueError("AnyOf needs at least one event")

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defuse()
            return
        if event._ok:
            self.succeed((event, event._value))
        else:
            event.defuse()
            self.fail(event._exc)  # type: ignore[arg-type]
