"""The event-index probe: deterministic fault-injection points.

The fault explorer crashes servers "at event N".  The kernel supports
that with a single armed probe whose callback fires *between* two
dispatches, at the first instant ``events_processed >= N`` — inside
``run()`` and ``run_until()``, on both kernel variants, at zero cost
while disarmed.  These tests pin the firing index, the chaining
re-arm, the interaction with ``until`` bounds, and the ``cancel_h``
crash-path companion.
"""

import pytest

from repro.sim import Simulator
from repro.sim.core import SimulationError


def _ticker(sim, n, dt=0.001):
    for _ in range(n):
        yield sim.timeout_h(dt)


class TestProbe:
    def test_fires_at_exact_index(self):
        sim = Simulator()
        seen = []
        sim.process(_ticker(sim, 50))
        sim.arm_probe(10, lambda: seen.append(sim.events_processed))
        sim.run()
        assert seen == [10]

    def test_fires_inside_run_until(self):
        sim = Simulator()
        seen = []
        done = sim.event()

        def worker():
            yield from _ticker(sim, 20)
            done.succeed("ok")

        sim.process(worker())
        sim.arm_probe(5, lambda: seen.append(sim.events_processed))
        assert sim.run_until(done) == "ok"
        assert seen == [5]

    def test_already_due_fires_before_first_event(self):
        sim = Simulator()
        seen = []
        sim.process(_ticker(sim, 3))
        sim.arm_probe(0, lambda: seen.append(sim.events_processed))
        sim.run()
        assert seen == [0]

    def test_callback_may_rearm_to_chain(self):
        sim = Simulator()
        seen = []

        def fire():
            seen.append(sim.events_processed)
            if len(seen) < 3:
                sim.arm_probe(seen[-1] + 7, fire)

        sim.process(_ticker(sim, 60))
        sim.arm_probe(4, fire)
        sim.run()
        assert seen == [4, 11, 18]

    def test_disarm_prevents_firing(self):
        sim = Simulator()
        seen = []
        sim.process(_ticker(sim, 20))
        sim.arm_probe(5, lambda: seen.append("fired"))
        sim.disarm_probe()
        sim.run()
        assert seen == []

    def test_survives_chunked_run_until_bound(self):
        """A probe beyond this chunk's events stays armed for the next."""
        sim = Simulator()
        seen = []

        def slow():
            for _ in range(30):
                yield sim.timeout_h(1.0)

        sim.process(slow())
        sim.arm_probe(10, lambda: seen.append(sim.events_processed))
        sim.run(until=3.5)  # ~4 events: probe not yet due
        assert seen == []
        sim.run()
        assert seen == [10]

    def test_survives_queue_drain(self):
        """Queue drains below the index -> probe waits for later work."""
        sim = Simulator()
        seen = []
        sim.process(_ticker(sim, 3))
        sim.arm_probe(100, lambda: seen.append(sim.events_processed))
        sim.run()
        assert seen == []
        sim.process(_ticker(sim, 200))
        sim.run()
        assert seen == [100]

    def test_negative_index_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.arm_probe(-1, lambda: None)

    def test_double_arm_rejected(self):
        sim = Simulator()
        sim.arm_probe(5, lambda: None)
        with pytest.raises(RuntimeError):
            sim.arm_probe(9, lambda: None)
        sim.disarm_probe()
        sim.arm_probe(9, lambda: None)  # fine after disarm

    def test_replay_identical_with_and_without_probe(self):
        """The step-wise probed loop must not perturb the schedule."""

        def run_once(probed):
            sim = Simulator()
            order = []

            def worker(k):
                for i in range(40):
                    yield sim.timeout_h((i % 3) * 0.002)
                    order.append((k, i))

            for k in range(5):
                sim.process(worker(k))
            if probed:
                sim.arm_probe(37, lambda: None)
            sim.run()
            return order, sim.now, sim.events_processed

        assert run_once(False) == run_once(True)


class TestCancelHandle:
    def test_cancel_pending_handle_recycles_slot(self):
        sim = Simulator()
        h = sim.event_h()
        free_before = len(sim._afree)
        sim.cancel_h(h)
        assert len(sim._afree) == free_before + 1
        assert sim._acb[h] is None and sim._aval[h] is None
        # The recycled slot is handed out again.
        assert sim.event_h() == h

    def test_cancel_triggered_handle_is_noop(self):
        """A triggered handle is queued; it must recycle at dispatch,
        not twice."""
        sim = Simulator()
        got = []

        def waiter():
            got.append((yield sim.timeout_h(0.5, "late")))

        sim.process(waiter())
        sim.run(until=0.1)
        h = None
        for node in sim._heap:  # find the in-flight timeout handle
            if type(node[3]) is int:
                h = node[3]
        assert h is not None
        free_before = len(sim._afree)
        sim.cancel_h(h)  # already triggered (H_OK): no-op
        assert len(sim._afree) == free_before
        sim.run()
        assert got == ["late"]

    def test_cancelled_slot_never_fires_stale_callback(self):
        """Reuse after cancel must not resume the original waiter."""
        sim = Simulator()
        resumed = []

        def doomed():
            yield sim.event_h()  # nobody will ever trigger this
            resumed.append("doomed")

        p = sim.process(doomed())
        sim.run()
        assert not p.triggered
        # Crash path: the structure holding the handle is destroyed.
        h = next(i for i, st in enumerate(sim._ast)
                 if st == 0 and sim._acb[i] is not None)
        sim.cancel_h(h)
        # Churn the slot through fresh timeouts.
        sim.process(_ticker(sim, 100, dt=0.0))
        sim.run()
        assert resumed == []

    def test_unhandled_failure_still_raises_with_probe_armed(self):
        sim = Simulator()
        h = sim.event_h()
        sim.fail_h(h, RuntimeError("boom"))
        sim.arm_probe(10_000, lambda: None)
        with pytest.raises(SimulationError):
            sim.run()
