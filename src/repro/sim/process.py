"""Generator-backed simulation processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional, Union

from repro.sim.events import H_DEFUSED, H_FAIL, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Simulator


class Process(Event):
    """A running activity wrapping a Python generator.

    The generator advances by yielding :class:`Event` objects — or raw
    integer event handles from the simulator's handle API
    (``timeout_h``, ``Store.get_h``) — and is resumed with the event's
    value once the event is processed, or has the event's exception
    thrown into it if the event failed.  The process itself *is* an
    event: it triggers when the generator returns (success, with the
    generator's return value) or raises (failure), so processes can
    wait on each other by yielding them.
    """

    __slots__ = ("_gen", "_target", "name", "_resume_cb")

    #: Exceptions that end the process quietly (it succeeds with None)
    #: instead of failing it; subclasses list their teardown signals.
    QUIET_EXITS: tuple = ()

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process needs a generator, got {generator!r}")
        super().__init__(sim)
        self._gen = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: ``self._resume`` bound exactly once: handle waiter slots are
        #: detached by identity (``acb[h] is self._resume_cb``), which
        #: only works with a stable bound-method object — and it saves
        #: allocating one per yield on the resume hot path.
        self._resume_cb = self._resume
        #: The event or handle this process is waiting on (None while
        #: running).  Bootstrap: resume the generator at the current
        #: instant, but via the queue so that process startup is ordered
        #: like everything else.
        self._target: Optional[Union[Event, int]] = sim.init_h(self._resume_cb)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def kill(self) -> None:
        """Stop the process for good, before this call returns.

        Detaches the waiter slot (the old target wakes nothing), closes
        the generator (``GeneratorExit`` at its yield: ``finally`` blocks
        run, nothing else does) and completes the process quietly, which
        releases whoever waits on it.  One still awaiting its bootstrap
        never runs; a finished one is left alone.  Call it between
        dispatches, not from a callback of the event the victim awaits.
        """
        if self.triggered:
            return
        target = self._target
        if type(target) is int:
            if self.sim._acb[target] is self._resume_cb:
                self.sim._acb[target] = None
        elif target is not None:
            target.callbacks.remove(self._resume_cb)
            if not target.callbacks:
                # Nobody is left to hear this wait's outcome: a failure
                # of it (an RPC our own crash fails, say) was addressed
                # to the killed process, not lost.
                target.defuse()
        if self._gen is not None:  # a handler slot may not have one yet
            self._gen.close()
        self._finish(None)

    # -- internals -------------------------------------------------------

    def _finish(self, exc: Optional[BaseException], value: Any = None) -> None:
        """The generator ended: trigger this process's own event."""
        # Drop the self-referencing bound method so a finished process
        # dies by refcount (replays run with the cyclic GC paused).
        self._resume_cb = None
        if exc is None or isinstance(exc, self.QUIET_EXITS):
            self.succeed(value)
        else:
            self.fail(exc)

    def _resume(self, event: Union[Event, int]) -> None:
        """Advance the generator with the outcome of ``event``."""
        self._target = None
        sim = self.sim
        gen = self._gen
        while True:
            try:
                if type(event) is int:
                    st = sim._ast[event]
                    if st & H_FAIL:
                        sim._ast[event] = st | H_DEFUSED  # the throw is the handling
                        target = gen.throw(sim._aval[event])
                    else:
                        target = gen.send(sim._aval[event])
                elif event._ok:
                    target = gen.send(event._value)
                else:
                    event._defused = True
                    target = gen.throw(event._exc)  # type: ignore[arg-type]
            except StopIteration as stop:
                self._finish(None, stop.value)
                return
            except BaseException as exc:
                self._finish(exc)
                return

            if type(target) is int:
                # Handle: single-waiter by contract, and never already
                # processed (handles recycle at dispatch, so a live
                # handle a generator can yield is queued or pending).
                sim._acb[target] = self._resume_cb
                self._target = target
                return
            if not isinstance(target, Event):
                # Report the misuse where it happened: throw it into the
                # generator as the outcome of a failed pseudo-event.
                event = Event(sim)
                event._exc = TypeError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
                continue
            if target.callbacks is None:
                # Already-processed event: resume immediately (same instant).
                event = target
                continue
            target.callbacks.append(self._resume_cb)
            self._target = target
            return
