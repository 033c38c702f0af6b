"""The message store: an unbounded FIFO channel with crash teardown."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Simulator


class ResourceClosed(RuntimeError):
    """Raised to waiters when a Store is torn down (crash)."""


class Store:
    """An unbounded FIFO channel of items (e.g. a node's message inbox).

    ``put`` never blocks; ``get`` returns an event that succeeds with
    the oldest item.  ``close`` fails all current and future getters
    with :class:`ResourceClosed` — used when a node crashes so its
    service loops unwind.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: Any) -> None:
        if self._closed:
            return  # messages to a crashed node are dropped
        getters = self._getters
        while getters:
            # A getter whose waiter was detached (a killed process)
            # is still pending: it takes the item and wakes into nothing.
            if self.sim.succeed_pending(getters.popleft(), item):
                return
        self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._closed:
            ev.fail(ResourceClosed("store is closed"))
            ev.defuse()
            return ev
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def get_h(self) -> int:
        """Handle analogue of :meth:`get` for single-waiter service loops.

        Returns an event handle; yield it from a process to receive the
        oldest item (or have :class:`ResourceClosed` thrown on close).
        """
        sim = self.sim
        h = sim.event_h()
        if self._closed:
            sim.fail_h(h, ResourceClosed("store is closed"), defused=True)
        elif self._items:
            sim.succeed_h(h, self._items.popleft())
        else:
            self._getters.append(h)
        return h

    def close(self) -> None:
        """Drop buffered items and fail all waiting getters."""
        self._closed = True
        self._items.clear()
        sim = self.sim
        while self._getters:
            getter = self._getters.popleft()
            if type(getter) is int:
                if sim._ast[getter] == 0:
                    sim.fail_h(getter, ResourceClosed("store closed"))
            elif not getter.triggered:
                getter.fail(ResourceClosed("store closed"))

    def reopen(self) -> None:
        """Re-enable the store after a reboot."""
        self._closed = False
