"""Free-list stress: handle slots must recycle, not grow without bound.

The struct-of-arrays timeline hands out integer event handles whose
slots return to the simulator's free list at dispatch.  These tests
churn the allocate/trigger/kill paths hard enough that steady
state *must* reuse slots, then pin both the bound on column growth and
the determinism of the resulting schedule.
"""

import pytest

from repro.params import SimParams
from repro.sim import Simulator, Store
from repro.storage import Disk, LogRecord, WriteAheadLog


def _column_size(sim: Simulator) -> int:
    return len(sim._ast)


class TestHandleRecycling:
    def test_timeout_churn_bounds_columns(self):
        """10k sequential timeouts reuse a handful of slots."""
        sim = Simulator()

        def ticker():
            for i in range(10_000):
                yield sim.timeout_h(0.001 if i % 3 else 0.0)

        sim.process(ticker())
        sim.run()
        # One live handle per concurrent waiter (the process target plus
        # bootstrap machinery), not one per timeout ever created.
        assert _column_size(sim) < 32
        assert len(sim._afree) > 0

    def test_parallel_churn_bounds_columns(self):
        """Many processes interleaving delays still recycle slots."""
        sim = Simulator()
        workers = 50

        def ticker(k: int):
            for i in range(200):
                yield sim.timeout_h(((i + k) % 5) * 0.01)

        for k in range(workers):
            sim.process(ticker(k))
        sim.run()
        # Concurrent waiters bound the working set: ~1 slot per live
        # process, plus bootstrap slack — far below the 10k handles
        # the run churned through.
        assert _column_size(sim) < 4 * workers

    def test_kill_abandons_stale_handle_safely(self):
        """A killed waiter's handle fires into nothing, then recycles."""
        sim = Simulator()
        outcomes = []

        def sleeper():
            try:
                yield sim.timeout_h(100.0)
                outcomes.append("woke")
            finally:
                outcomes.append("killed")

        proc = sim.process(sleeper())

        def killer():
            yield sim.timeout_h(1.0)
            proc.kill()
            # The stale handle stays queued until t=100; whoever takes
            # the slot after that must not wake the dead sleeper.
            yield sim.timeout_h(500.0)
            outcomes.append("woke-late")

        sim.process(killer())
        sim.run()
        assert outcomes == ["killed", "woke-late"]
        assert sim.now == 501.0

    def test_store_get_churn_recycles(self):
        """Store.get_h slots (granted and parked) return to the pool."""
        sim = Simulator()
        store = Store(sim)
        seen = []

        def producer():
            for i in range(2_000):
                store.put(i)
                yield sim.timeout_h(0.001)

        def consumer():
            for _ in range(2_000):
                item = yield store.get_h()
                seen.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert seen == list(range(2_000))
        assert _column_size(sim) < 32

    def test_churn_schedule_is_deterministic(self):
        """Identical churn twice -> identical event count and clock."""

        def run_once():
            sim = Simulator()
            store = Store(sim)

            def noisy(k: int):
                for i in range(300):
                    if i % 7 == 0:
                        store.put((k, i))
                    elif i % 7 == 3 and store._items:
                        yield store.get_h()
                    else:
                        yield sim.timeout_h((i % 4) * 0.002)

            procs = [sim.process(noisy(k)) for k in range(20)]

            def reaper():
                yield sim.timeout_h(0.1)
                for p in procs[::3]:
                    p.kill()

            sim.process(reaper())
            sim.run()
            return sim.events_processed, sim.now, _column_size(sim)

        first = run_once()
        second = run_once()
        assert first == second

    def test_value_roundtrip_through_recycled_slot(self):
        """A recycled slot carries the new value, never the stale one."""
        sim = Simulator()
        got = []

        def one(value):
            got.append((yield sim.timeout_h(0.0, value)))

        def driver():
            for i in range(100):
                # Sequential waits force the same slot to be reused with
                # a fresh payload every iteration.
                yield from one(f"v{i}")

        sim.process(driver())
        sim.run()
        assert got == [f"v{i}" for i in range(100)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout_h(-1.0)

    def test_wal_crash_cancels_parked_handles(self):
        """Crash with appends parked in the WAL recycles their handles.

        A crash catches ``append_h`` handles in two parking spots: the
        flush queue (records accepted, fsync pending) and the capacity
        waiters (log full).  ``WriteAheadLog.crash()`` must cancel both
        kinds — a leaked slot grows the columns forever, and a leaked
        *callback* would resurrect the crashed writer when the slot is
        recycled into an unrelated event.
        """
        sim = Simulator()
        params = SimParams()
        disk = Disk(sim, params)
        wal = WriteAheadLog(sim, disk, params, capacity=2_000)
        resumed = []

        def writer(k):
            yield wal.append_h(LogRecord((1, 1, k), "RESULT", size=600))
            resumed.append(k)

        # Writer 0 first: the flusher picks its record up into the
        # in-flight batch and starts the fsync.
        sim.process(writer(0))
        sim.run(until=0.0)
        # The rest append while the fsync is in flight: records 1-2 are
        # admitted and sit in the flush queue; 3-11 park on capacity.
        for k in range(1, 12):
            sim.process(writer(k))
        sim.run(until=0.0)
        assert len(wal._space_waiters) > 0
        assert len(wal._flush_queue) > 0
        assert resumed == []

        wal.crash()
        assert len(wal._space_waiters) == 0
        assert len(wal._flush_queue) == 0

        # Churn the recycled slots hard: the doomed writers must never
        # resume, and the columns stay at their crash-time high-water
        # mark instead of growing by one leaked slot per parked handle.
        size_after_crash = _column_size(sim)

        def churner():
            for i in range(5_000):
                yield sim.timeout_h(0.001 if i % 3 else 0.0)

        sim.process(churner())
        sim.run()
        # Only writer 0 resumes (its record was in the flusher's
        # in-flight batch, not a parked queue; a cluster crash kills
        # the flusher process too, but the WAL alone must not).
        assert resumed == [0]
        assert _column_size(sim) <= size_after_crash
