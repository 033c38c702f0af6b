"""Unit tests for the event primitives."""

import pytest

from repro.sim import EventAlreadyTriggered, Simulator
from repro.sim.core import SimulationError


class TestEvent:
    def test_initial_state(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed
        assert ev.ok is None

    def test_value_unavailable_while_pending(self, sim):
        ev = sim.event()
        with pytest.raises(AttributeError):
            _ = ev.value

    def test_succeed_sets_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok is True
        assert ev.value == 42

    def test_succeed_with_none_is_triggered(self, sim):
        ev = sim.event()
        ev.succeed()
        assert ev.triggered
        assert ev.value is None

    def test_double_succeed_raises(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed(2)

    def test_fail_then_succeed_raises(self, sim):
        ev = sim.event()
        ev.fail(ValueError("x"))
        ev.defuse()
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_fail_value_is_exception(self, sim):
        ev = sim.event()
        exc = ValueError("boom")
        ev.fail(exc)
        ev.defuse()
        assert ev.ok is False
        assert ev.value is exc
        sim.run()

    def test_unhandled_failure_crashes_simulation(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("lost"))
        with pytest.raises(SimulationError):
            sim.run()

    def test_defused_failure_does_not_crash(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("handled"))
        ev.defuse()
        sim.run()  # no raise

    def test_callbacks_run_on_processing(self, sim):
        ev = sim.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("v")
        assert seen == []  # not yet processed
        sim.run()
        assert seen == ["v"]
        assert ev.processed

    def test_succeed_with_delay(self, sim):
        ev = sim.event()
        stamps = []
        ev.callbacks.append(lambda e: stamps.append(sim.now))
        ev.succeed(delay=2.5)
        sim.run()
        assert stamps == [2.5]

    def test_trigger_mirrors_success(self, sim):
        src, dst = sim.event(), sim.event()
        src.succeed(7)
        sim.run()
        dst.trigger(src)
        assert dst.value == 7

    def test_trigger_mirrors_failure(self, sim):
        src, dst = sim.event(), sim.event()
        src.fail(KeyError("k"))
        sim.run_until_safe = None
        dst.trigger(src)
        dst.defuse()
        assert dst.ok is False
        sim.run()

    def test_trigger_untriggered_source_raises(self, sim):
        # Regression: trigger() used to copy the _PENDING sentinel out
        # of an untriggered source, leaving dst looking triggered but
        # holding no value.
        src, dst = sim.event(), sim.event()
        with pytest.raises(ValueError):
            dst.trigger(src)
        assert not dst.triggered
        src.succeed(7)
        dst.trigger(src)  # fine once the source has fired
        assert dst.value == 7
        sim.run()


class TestTimeout:
    def test_fires_at_right_time(self, sim):
        stamps = []
        t = sim.timeout(3.0, value="done")
        t.callbacks.append(lambda e: stamps.append((sim.now, e.value)))
        sim.run()
        assert stamps == [(3.0, "done")]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_zero_delay_ok(self, sim):
        t = sim.timeout(0.0)
        sim.run()
        assert t.processed

    def test_cannot_be_succeeded_or_failed(self, sim):
        t = sim.timeout(1.0)
        with pytest.raises(EventAlreadyTriggered):
            t.succeed()
        with pytest.raises(EventAlreadyTriggered):
            t.fail(ValueError())
        sim.run()


class TestAllOf:
    def test_waits_for_all(self, sim):
        t1, t2 = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")
        both = sim.all_of([t1, t2])
        done_at = []
        both.callbacks.append(lambda e: done_at.append(sim.now))
        sim.run()
        assert done_at == [2.0]
        assert both.value == ["a", "b"]

    def test_value_order_is_construction_order(self, sim):
        t1, t2 = sim.timeout(5.0, "late"), sim.timeout(1.0, "early")
        both = sim.all_of([t1, t2])
        sim.run()
        assert both.value == ["late", "early"]

    def test_empty_succeeds_immediately(self, sim):
        ev = sim.all_of([])
        sim.run()
        assert ev.processed
        assert ev.value == []

    def test_child_failure_fails_condition(self, sim):
        good = sim.timeout(1.0)
        bad = sim.event()
        cond = sim.all_of([good, bad])
        cond.defuse()
        bad.fail(ValueError("child"))
        sim.run()
        assert cond.ok is False
        assert isinstance(cond.value, ValueError)

    def test_with_already_processed_children(self, sim):
        t1 = sim.timeout(1.0, "x")
        sim.run()
        assert t1.processed
        cond = sim.all_of([t1])
        sim.run()
        assert cond.value == ["x"]

    def test_mixed_simulators_rejected(self, sim):
        other = Simulator()
        with pytest.raises(ValueError):
            sim.all_of([sim.timeout(1), other.timeout(1)])


class TestAnyOf:
    def test_first_wins(self, sim):
        t1, t2 = sim.timeout(1.0, "fast"), sim.timeout(2.0, "slow")
        race = sim.any_of([t1, t2])
        sim.run()
        winner, value = race.value
        assert winner is t1
        assert value == "fast"

    def test_empty_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])

    def test_late_failure_is_defused(self, sim):
        t1 = sim.timeout(1.0, "ok")
        bad = sim.event()
        race = sim.any_of([t1, bad])
        sim.run()
        assert race.value[1] == "ok"
        bad.fail(RuntimeError("late"))
        sim.run()  # must not raise: AnyOf defuses late failures

    def test_first_failure_fails_condition(self, sim):
        bad = sim.event()
        slow = sim.timeout(10.0)
        race = sim.any_of([bad, slow])
        race.defuse()
        bad.fail(ValueError("first"))
        sim.run()
        assert race.ok is False

    def test_every_loser_failure_is_defused(self, sim):
        # Several losers failing after the race settled: all of them
        # must be defused, in any order.
        t = sim.timeout(1.0, "winner")
        losers = [sim.event() for _ in range(3)]
        race = sim.any_of([t, *losers])
        sim.run()
        assert race.value == (t, "winner")
        for i, ev in enumerate(losers):
            ev.fail(RuntimeError(f"late-{i}"))
        sim.run()  # must not raise
        assert all(ev.ok is False for ev in losers)
