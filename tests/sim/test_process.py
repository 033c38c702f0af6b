"""Unit tests for generator-backed processes."""

import pytest

from repro.sim.core import SimulationError


class TestBasics:
    def test_process_returns_value(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            return 99

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == 99

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_is_alive_lifecycle(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)

        p = sim.process(proc(sim))
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_yield_non_event_raises(self, sim):
        # Ints are excluded here: a raw int yield is the anonymous
        # event-handle currency (sim.timeout_h / Store.get_h).
        def proc(sim):
            yield "not-an-event"

        p = sim.process(proc(sim))
        p.defuse()
        sim.run()
        assert p.ok is False
        assert isinstance(p.value, TypeError)

    def test_process_waits_on_process(self, sim):
        def inner(sim):
            yield sim.timeout(2.0)
            return "inner-done"

        def outer(sim):
            result = yield sim.process(inner(sim))
            return f"outer saw {result}"

        p = sim.process(outer(sim))
        sim.run()
        assert p.value == "outer saw inner-done"

    def test_yield_already_processed_event_resumes_immediately(self, sim):
        t = sim.timeout(1.0, "old")

        def proc(sim):
            yield sim.timeout(5.0)
            v = yield t  # processed long ago
            return (sim.now, v)

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == (5.0, "old")

    def test_exception_propagates_into_generator(self, sim):
        def proc(sim):
            ev = sim.event()
            ev.fail(ValueError("injected"), delay=1.0)
            try:
                yield ev
            except ValueError as exc:
                return f"caught {exc}"

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "caught injected"

    def test_uncaught_exception_fails_process(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("kaput")

        p = sim.process(proc(sim))
        with pytest.raises(SimulationError):
            sim.run()
        assert p.ok is False

    def test_two_processes_interleave(self, sim):
        log = []

        def proc(sim, name, step):
            for _ in range(3):
                yield sim.timeout(step)
                log.append((sim.now, name))

        sim.process(proc(sim, "a", 1.0))
        sim.process(proc(sim, "b", 1.5))
        sim.run()
        # At t=3.0 both fire; b's timeout was scheduled first (at 1.5)
        # so the deterministic tie-break runs b before a.
        assert log == [
            (1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b"), (3.0, "a"), (4.5, "b"),
        ]


class TestKill:
    def test_kill_runs_finally_and_nothing_else(self, sim):
        ran = []

        def proc(sim):
            try:
                yield sim.timeout(100.0)
                ran.append("resumed")
            except Exception:  # GeneratorExit is not an Exception
                ran.append("caught")
            finally:
                ran.append(("finally", sim.now))
            ran.append("after")

        p = sim.process(proc(sim))

        def killer(sim):
            yield sim.timeout(2.0)
            p.kill()
            # Synchronous: all of it happened before kill() returned.
            assert ran == [("finally", 2.0)] and p.triggered

        sim.process(killer(sim))
        sim.run()
        assert ran == [("finally", 2.0)]

    def test_kill_detaches_from_handle_target(self, sim):
        """The killed process must not be resumed when its old target
        finally fires; the stale handle dispatches into nothing."""
        resumed = []

        def proc(sim):
            yield sim.timeout_h(5.0)
            resumed.append("timeout")

        p = sim.process(proc(sim))
        sim.run(until=1.0)
        p.kill()
        sim.run()
        assert resumed == [] and sim.now == 5.0

    def test_kill_detaches_from_event_target(self, sim):
        """A failure of the abandoned wait was addressed to the killed
        process: it is neither delivered nor an unhandled failure."""
        resumed = []
        ev = sim.event()

        def proc(sim):
            try:
                yield ev
            finally:
                resumed.append("finally")
            resumed.append("after")

        p = sim.process(proc(sim))
        sim.run(until=1.0)
        p.kill()
        assert ev.callbacks == []
        ev.fail(ConnectionError("addressed to the dead"))
        sim.run()
        assert resumed == ["finally"]

    def test_kill_inside_any_of(self, sim):
        resumed = []
        rpc = sim.event()

        def proc(sim):
            yield sim.any_of([rpc, sim.timeout(5.0)])
            resumed.append("woke")

        p = sim.process(proc(sim))
        sim.run(until=1.0)
        p.kill()
        # The condition outlives its waiter and still hears the children.
        rpc.fail(ConnectionError("peer gone"))
        sim.run()
        assert resumed == [] and sim.now == 5.0

    def test_kill_before_bootstrap_never_runs(self, sim):
        ran = []

        def proc(sim):
            ran.append("started")
            yield sim.timeout(1.0)

        p = sim.process(proc(sim))
        p.kill()
        assert p.triggered
        sim.run()
        assert ran == [] and p.ok and p.value is None

    def test_kill_completed_process_is_noop(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(proc(sim))
        sim.run()
        p.kill()
        sim.run()
        assert p.value == "done"

    def test_kill_completes_quietly_and_releases_waiters(self, sim):
        def proc(sim):
            yield sim.timeout(100.0)

        p = sim.process(proc(sim))
        got = []

        def waiter(sim):
            got.append((yield p))

        sim.process(waiter(sim))
        sim.run(until=1.0)
        p.kill()
        sim.run()
        assert p.ok is True and got == [None]

    def test_killed_children_do_not_wedge_a_parent_killed_with_them(self, sim):
        """Parent waits on all_of(children); a crash kills all three in
        set order.  The orphaned condition completes into nothing."""
        ran = []

        def child(sim, k):
            try:
                yield sim.timeout(10.0 * k)
            finally:
                ran.append(k)

        kids = [sim.process(child(sim, k)) for k in (1, 2)]

        def parent(sim):
            yield sim.all_of(kids)
            ran.append("parent")

        par = sim.process(parent(sim))
        sim.run(until=1.0)
        for p in (kids[0], par, kids[1]):
            p.kill()
        sim.run()
        assert ran == [1, 2]
        assert all(p.processed and p.ok for p in kids + [par])

    def test_kill_from_inside_the_victim_is_loud(self, sim):
        holder = []

        def proc(sim):
            yield sim.timeout(1.0)
            holder[0].kill()

        holder.append(sim.process(proc(sim)))
        holder[0].defuse()
        sim.run()
        assert isinstance(holder[0].value, ValueError)
