"""Unit tests for generator-backed processes."""

import pytest

from repro.sim import Interrupt
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


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        def proc(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupt as intr:
                return ("interrupted", intr.cause, sim.now)

        p = sim.process(proc(sim))

        def killer(sim):
            yield sim.timeout(2.0)
            p.interrupt("crash")

        sim.process(killer(sim))
        sim.run()
        assert p.value == ("interrupted", "crash", 2.0)

    def test_interrupt_detaches_from_target(self, sim):
        """The interrupted process must not be resumed again when its
        old target event finally fires."""
        resumed = []

        def proc(sim):
            try:
                yield sim.timeout(5.0)
                resumed.append("timeout")
            except Interrupt:
                yield sim.timeout(10.0)
                resumed.append("after-interrupt")

        p = sim.process(proc(sim))

        def killer(sim):
            yield sim.timeout(1.0)
            p.interrupt()

        sim.process(killer(sim))
        sim.run()
        assert resumed == ["after-interrupt"]
        assert sim.now == 11.0

    def test_interrupt_completed_process_is_noop(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(proc(sim))
        sim.run()
        p.interrupt("too late")
        sim.run()
        assert p.value == "done"

    def test_uncaught_interrupt_fails_process(self, sim):
        def proc(sim):
            yield sim.timeout(100.0)

        p = sim.process(proc(sim))
        p.defuse()
        p.interrupt("kill")
        sim.run()
        assert p.ok is False
        assert isinstance(p.value, Interrupt)
