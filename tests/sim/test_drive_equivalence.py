"""One loop, many stop conditions: every way of driving the kernel pops
the same entries in the same order.

A random script of same-instant mixes — delay 0 or ``D``, urgent or
normal, Event or bare handle, succeeding or failing, each firing
scheduling further entries — is replayed under ``run()``, chunked
``run(until)``, ``run_until``, repeated ``step()`` and with an
event-index probe armed part-way.  The fire order (with timestamps) and
``events_processed`` must agree exactly, and the order must be the
kernel's contract — every pop takes the smallest queued ``(time,
priority, sequence)`` — checked against keys recorded at scheduling
time, not against another drive.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.events import PRIORITY_NORMAL, PRIORITY_URGENT

D = 0.25
END = 50.0  # the sentinel every drive waits for


class Boom(Exception):
    pass


def _item(children):
    """(kind, delay, priority, fails, children); kinds that cannot take a
    delay or priority ignore them."""
    return st.tuples(
        st.sampled_from(["event", "timeout_h", "init_h", "await_h"]),
        st.sampled_from([0.0, D]),
        st.sampled_from([PRIORITY_URGENT, PRIORITY_NORMAL]),
        st.booleans(),
        children,
    )


_ITEMS = st.recursive(
    st.lists(_item(st.just(())), max_size=4),
    lambda children: st.lists(_item(children.map(tuple)), max_size=4),
    max_leaves=24,
)


class Script:
    """Schedules the items on a fresh simulator and records fire order."""

    def __init__(self, items):
        self.sim = Simulator()
        self.order = []
        #: label -> (time, priority, seq) of every entry still queued
        self.queued = {}
        self._label = 0
        self.spawn(items)
        self.sentinel = self.sim.timeout(END)

    def spawn(self, items):
        for item in items:
            self._label += 1
            self._schedule(self._label, *item)

    def _fired(self, label, children):
        assert self.queued.pop(label) < min(self.queued.values(), default=(END,))
        self.order.append((label, self.sim.now))
        self.spawn(children)

    def _schedule(self, label, kind, delay, priority, fails, children):
        sim = self.sim
        if kind != "event":
            priority = PRIORITY_URGENT if kind == "init_h" else PRIORITY_NORMAL
        if kind in ("init_h", "await_h"):
            delay = 0.0
        self.queued[label] = (sim.now + delay, priority, sim.burn_seq())
        if kind == "event":
            ev = sim.event()
            if fails:
                ev._ok, ev._exc = False, Boom(label)
            else:
                ev._ok, ev._value = True, label

            def on_event(e):
                e.defuse()
                self._fired(label, children)

            ev.callbacks.append(on_event)
            sim.schedule(ev, delay, priority)
        elif kind == "timeout_h":  # normal priority, succeeds
            sim.timeout_h(delay, label, lambda h: self._fired(label, children))
        elif kind == "init_h":  # urgent, delay 0
            sim.init_h(
                lambda h: self._fired(label, children),
                throw=Boom(label) if fails else None,
            )
        else:  # await_h: fail_h / succeed_h (normal, delay 0) under a process
            h = sim.event_h()
            if fails:
                sim.fail_h(h, Boom(label))
            else:
                sim.succeed_h(h, label)

            def waiter():
                try:
                    yield h
                except Boom:
                    pass
                self._fired(label, children)

            sim.process(waiter())

    def result(self):
        assert self.sentinel.processed and not self.queued
        return self.order, self.sim.events_processed


def _run(items):
    s = Script(items)
    s.sim.run()
    return s.result()


def _run_chunked(items):
    s = Script(items)
    while s.sim.peek() != float("inf"):
        s.sim.run(until=s.sim.now + D / 2)
    return s.result()


def _run_until(items):
    s = Script(items)
    s.sim.run_until(s.sentinel)
    return s.result()


def _step(items):
    s = Script(items)
    while s.sim.peek() != float("inf"):
        s.sim.step()
    return s.result()


def _probed(items, steps_first, probe_after):
    s = Script(items)
    for _ in range(steps_first):
        if s.sim.peek() == float("inf"):
            break
        s.sim.step()
    at = s.sim.events_processed + probe_after
    seen = []
    s.sim.arm_probe(at, lambda: seen.append(s.sim.events_processed))
    s.sim.run()
    order, events = s.result()
    # No batched extras here, so the count passes through every index.
    assert seen == ([at] if at <= events else [])
    s.sim.disarm_probe()
    return order, events


@settings(max_examples=150, deadline=None)
@given(items=_ITEMS, steps_first=st.integers(0, 12), probe_after=st.integers(0, 12))
def test_every_drive_pops_the_same_order(items, steps_first, probe_after):
    expected = _run(items)
    assert _run_chunked(items) == expected
    assert _run_until(items) == expected
    assert _step(items) == expected
    assert _probed(items, steps_first, probe_after) == expected
