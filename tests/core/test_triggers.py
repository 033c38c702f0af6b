"""Unit tests for the commitment triggers."""

import pytest

from repro.core.triggers import CommitTriggers


class TestValidation:
    def test_bad_timeout(self, sim):
        with pytest.raises(ValueError):
            CommitTriggers(sim, lambda r: None, timeout=0, threshold=None)

    def test_bad_threshold(self, sim):
        with pytest.raises(ValueError):
            CommitTriggers(sim, lambda r: None, timeout=None, threshold=0)


class TestTimeoutTrigger:
    def test_fires_periodically(self, sim):
        fires = []
        t = CommitTriggers(sim, lambda r: fires.append(sim.now), timeout=1.0, threshold=None)
        t.start()
        sim.run(until=3.5)
        assert fires == [1.0, 2.0, 3.0]
        assert t.timeout_fires == 3

    def test_stop_halts_timer(self, sim):
        fires = []
        t = CommitTriggers(sim, lambda r: fires.append(sim.now), timeout=1.0, threshold=None)
        t.start()
        sim.run(until=1.5)
        t.stop()
        sim.run(until=5.0)
        assert fires == [1.0]

    def test_start_is_idempotent(self, sim):
        fires = []
        t = CommitTriggers(sim, lambda r: fires.append(sim.now), timeout=1.0, threshold=None)
        t.start()
        t.start()
        sim.run(until=1.5)
        assert fires == [1.0]

    def test_restart_after_stop(self, sim):
        fires = []
        t = CommitTriggers(sim, lambda r: fires.append(sim.now), timeout=1.0, threshold=None)
        t.start()
        sim.run(until=1.5)
        t.stop()
        sim.run(until=3.0)
        t.start()
        sim.run(until=4.5)
        assert fires == [1.0, 4.0]

    def test_scan_keeps_ticking_without_the_timeout_trigger(self, sim):
        launches, scans = [], []
        t = CommitTriggers(
            sim, launches.append, timeout=None, threshold=None,
            scan=lambda: scans.append(sim.now), scan_period=1.0,
        )
        t.start()
        sim.run(until=3.5)
        assert scans == [1.0, 2.0, 3.0]
        assert launches == [] and t.timeout_fires == 0

    def test_disabled_timeout(self, sim):
        fires = []
        t = CommitTriggers(sim, lambda r: fires.append(1), timeout=None, threshold=None)
        t.start()
        sim.run(until=10)
        assert fires == []


class TestThresholdTrigger:
    def test_fires_at_threshold(self, sim):
        fires = []
        t = CommitTriggers(sim, lambda r: fires.append(r), timeout=None, threshold=5)
        for n in range(1, 5):
            t.notify_pending(n)
        assert fires == []
        t.notify_pending(5)
        assert fires == ["threshold"]
        assert t.threshold_fires == 1

    def test_disabled_threshold(self, sim):
        fires = []
        t = CommitTriggers(sim, lambda r: fires.append(r), timeout=None, threshold=None)
        t.notify_pending(10_000)
        assert fires == []

    def test_both_triggers_coexist(self, sim):
        fires = []
        t = CommitTriggers(sim, lambda r: fires.append(r), timeout=2.0, threshold=3)
        t.start()
        t.notify_pending(3)
        sim.run(until=2.5)
        assert fires == ["threshold", "timeout"]


class TestTimerAccounting:
    """Fuzz faults are addressed by event index, so what the timer costs
    on the timeline — entries dispatched and sequence numbers burned by
    start, tick and stop — is contract.  The numbers below were read off
    the generator ``Process`` loop this timer replaced (commit bdb99f3)
    and must never move."""

    @pytest.mark.parametrize("idle", [None, lambda: True], ids=["ticking", "idle"])
    def test_lifecycle_costs_are_pinned(self, sim, idle):
        fires = []
        t = CommitTriggers(
            sim, lambda r: fires.append(sim.now), timeout=1.0, threshold=None,
            idle=idle,
        )
        marks = []

        def mark():
            marks.append((sim.events_processed, sim.seq))

        t.start()
        t.stop()  # before the bootstrap ran: two urgent entries queued
        mark()
        sim.run(until=0.5)  # bootstrap arms 1.0; halt orphans it; completion
        mark()
        t.start()
        mark()
        sim.run(until=2.5)  # bootstrap, the orphan at 1.0, ticks 1.5 and 2.5
        mark()
        t.stop()
        t.start()  # crash + reboot at the same instant
        mark()
        sim.run(until=4.0)  # halt, bootstrap, completion, orphan 3.5, tick 3.5
        mark()
        t.stop()
        mark()
        sim.run(until=6.0)  # halt, completion, the orphan at 4.5
        mark()
        assert marks == [
            (0, 2), (3, 4), (3, 5), (7, 8), (7, 10), (12, 13), (12, 14), (15, 15),
        ]
        assert t.timeout_fires == 3
        assert fires == ([1.5, 2.5, 3.5] if idle is None else [])

    def test_skipped_fires_reach_the_observer_in_one_call(self, sim):
        seen = []
        t = CommitTriggers(
            sim, lambda r: 1 / 0, timeout=0.5, threshold=None,
            on_fire=lambda *a: seen.append(a), scan=lambda: 1 / 0,
            idle=lambda: True,
        )
        t.start()
        sim.run(until=100.0)
        assert seen == [("timeout", 200)] and t.timeout_fires == 200
