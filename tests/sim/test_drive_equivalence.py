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

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Periodic, Simulator
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
        self.queued[label] = (sim.now + delay, priority, sim.seq)
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
            sim.init_h(lambda h: self._fired(label, children))
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


# -- periodic timers: fast-forwarded and step-wise runs agree -------------
#
# ``run(until)`` may replay idle ticks without dispatching them; an armed
# probe (however far away) forces one-by-one dispatch, so the same world
# driven both ways must be indistinguishable from outside the kernel.

_PERIODS = [D, 2 * D, 3 * D, 0.1]  # 0.1 drifts off the D grid in floats

#: (period, busy ticks at start, started at t=0, has the idle/skipped pair)
_TIMERS = st.lists(
    st.tuples(st.sampled_from(_PERIODS), st.integers(0, 2), st.booleans(),
              st.booleans()),
    min_size=1, max_size=4,
)


def _action(children):
    """(delay, what, timer index, busy ticks, children)."""
    return st.tuples(
        st.sampled_from([0.0, D, 4 * D, 0.35]),
        st.sampled_from(["noop", "busy", "start", "stop"]),
        st.integers(0, 3),
        st.integers(1, 3),
        children,
    )


_ACTIONS = st.recursive(
    st.lists(_action(st.just(())), max_size=4),
    lambda children: st.lists(_action(children.map(tuple)), max_size=4),
    max_leaves=16,
)
_CHUNKS = st.lists(st.sampled_from([D / 2, D, 3 * D, 12 * D]), min_size=1,
                   max_size=8)


class TimerWorld:
    """Periodic timers plus real events that start, stop and wake them.

    A timer is idle while its busy count is zero; a real event (never a
    tick of an idle timer — that is the idle contract) raises the count,
    each executed tick lowers it, and the tick that reaches zero queues
    a delay-0 entry so ticks feed the lanes too.
    """

    def __init__(self, timers, actions, stepwise):
        self.sim = sim = Simulator()
        if stepwise:
            sim.arm_probe(10**9, lambda: None)
        self.log = []
        self.fires = [0] * len(timers)
        self.busy = [busy for _p, busy, _s, _i in timers]
        self.timers = []
        for i, (period, _busy, started, pair) in enumerate(timers):
            timer = Periodic(
                sim, period, lambda i=i: self._tick(i),
                *((lambda i=i: self.busy[i] == 0,
                   lambda k, i=i: self._skipped(i, k)) if pair else ()),
            )
            self.timers.append(timer)
            if started:
                timer.start()
        self._label = 0
        self.spawn(actions)

    def _tick(self, i):
        self.fires[i] += 1
        self.log.append(("tick", i, self.sim.now))
        if self.busy[i]:
            self.busy[i] -= 1
            if not self.busy[i]:
                now = self.sim.now
                self.sim.timeout_h(
                    0.0, None, lambda h: self.log.append(("after", i, now))
                )

    def _skipped(self, i, k):
        assert k >= 1 and self.busy[i] == 0
        self.fires[i] += k

    def spawn(self, actions):
        for delay, what, i, busy, children in actions:
            self._label += 1
            self.sim.timeout_h(
                delay, None,
                lambda h, a=(self._label, what, i, busy, children): self._real(*a),
            )

    def _real(self, label, what, i, busy, children):
        self.log.append(("real", label, self.sim.now))
        i %= len(self.timers)
        if what == "busy":
            self.busy[i] += busy
        elif what == "start":
            self.timers[i].start()
        elif what == "stop":
            self.timers[i].stop()
        self.spawn(children)

    def drive(self, chunks):
        sim = self.sim
        marks = []
        for chunk in chunks:
            sim.run(until=sim.now + chunk)
            marks.append((sim.now, sim.events_processed, sim.seq,
                          tuple(self.fires)))
        return marks, self.log


#: One idle timer; a real event pops at the instant of a tick, ahead of
#: it by sequence, and leaves a delay-0 child in the lane while the tick
#: is the heap's (due) front: a fast-forward here would strand the child.
_LANE_BLOCKS = (
    [(D, 0, True, True)],
    [(2 * D, "noop", 0, 1, ((0.0, "noop", 0, 1, ()),))],
    [12 * D],
)


@settings(max_examples=300, deadline=None)
@given(timers=_TIMERS, actions=_ACTIONS, chunks=_CHUNKS)
@example(*_LANE_BLOCKS)
def test_fast_forwarded_ticks_equal_stepwise_ticks(timers, actions, chunks):
    fast = TimerWorld(timers, actions, stepwise=False).drive(chunks)
    assert fast == TimerWorld(timers, actions, stepwise=True).drive(chunks)


def test_idle_ticks_are_replayed_not_dispatched():
    sim = Simulator()
    asked = [0, 0]
    fires = [0, 0]

    def idle(i):
        asked[i] += 1
        return True

    def skipped(i, k):
        fires[i] += k

    for i, period in enumerate((D, 0.1)):
        Periodic(sim, period, lambda: 1 / 0, lambda i=i: idle(i),
                 lambda k, i=i: skipped(i, k)).start()
    sim.run(until=1000.0)
    assert asked == [1, 1]  # one look each, then 14,000 bare rotations
    assert fires[0] == 4000 and 9999 <= fires[1] <= 10000  # 0.1 drifts
    assert sim.events_processed == 2 + sum(fires)
    assert sim.seq == 2 + sum(fires) + 2

    # An armed probe must see its exact index: ticks dispatch one by one
    # up to it, and the fast-forward resumes once it has fired.
    at = sim.events_processed + 700
    seen = []
    sim.arm_probe(at, lambda: seen.append((sim.events_processed, sim.now)))
    sim.run(until=2000.0)
    assert seen == [(at, 1050.0)]  # 700 ticks = 50 s of 4 + 10 a second
    assert sum(asked) == 2 + 700 + 2  # one by one to the probe, then a look each
