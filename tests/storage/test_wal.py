"""Unit tests for the operation log (group commit, capacity, pruning)."""

import pytest

from repro.storage import Disk, LogRecord, WriteAheadLog


@pytest.fixture
def disk(sim, params):
    return Disk(sim, params)


def make_wal(sim, disk, params, capacity=None):
    return WriteAheadLog(sim, disk, params, capacity=capacity)


def rec(op_seq, rtype="RESULT", size=128):
    return LogRecord((1, 1, op_seq), rtype, size=size)


class TestAppend:
    def test_append_completes_after_flush(self, sim, disk, params):
        wal = make_wal(sim, disk, params)
        ev = wal.append(rec(1))
        assert not ev.processed
        sim.run()
        assert ev.processed
        assert wal.appends == 1
        assert wal.flushes == 1

    def test_group_commit_batches_concurrent_appends(self, sim, disk, params):
        wal = make_wal(sim, disk, params)
        evs = [wal.append(rec(i)) for i in range(10)]
        sim.run()
        assert all(e.processed for e in evs)
        # All ten appends were queued before the flusher ran once.
        assert wal.flushes == 1
        assert disk.stats.requests == 1

    def test_valid_bytes_accounting(self, sim, disk, params):
        wal = make_wal(sim, disk, params)
        for i in range(4):
            wal.append(rec(i, size=100))
        assert wal.valid_bytes == 400
        sim.run()
        assert wal.valid_bytes == 400

    def test_index_lookup(self, sim, disk, params):
        wal = make_wal(sim, disk, params)
        wal.append(rec(1, "RESULT"))
        wal.append(rec(1, "COMMIT"))
        wal.append(rec(2, "RESULT"))
        assert len(wal.records_of((1, 1, 1))) == 2
        assert wal.has_record((1, 1, 1), "COMMIT")
        assert not wal.has_record((1, 1, 2), "COMMIT")
        assert set(wal.ops_in_log()) == {(1, 1, 1), (1, 1, 2)}


class TestPruning:
    def test_prune_frees_space(self, sim, disk, params):
        wal = make_wal(sim, disk, params)
        wal.append(rec(1, size=100))
        wal.append(rec(1, size=100))
        sim.run()
        freed = wal.prune_op((1, 1, 1))
        assert freed == 200
        assert wal.valid_bytes == 0
        assert wal.records_of((1, 1, 1)) == []

    def test_prune_unknown_op_is_zero(self, sim, disk, params):
        wal = make_wal(sim, disk, params)
        assert wal.prune_op((9, 9, 9)) == 0


class TestCapacity:
    def test_full_log_blocks_append(self, sim, disk, params):
        wal = make_wal(sim, disk, params, capacity=250)
        wal.append(rec(1, size=100))
        wal.append(rec(2, size=100))
        blocked = wal.append(rec(3, size=100))
        sim.run()
        assert not blocked.triggered
        assert wal.blocked_appends == 1

    def test_on_full_hook_fires(self, sim, disk, params):
        fired = []
        wal = make_wal(sim, disk, params, capacity=100)
        wal.on_full = lambda: fired.append(True)
        wal.append(rec(1, size=80))
        wal.append(rec(2, size=80))
        assert fired == [True]

    def test_prune_admits_blocked_appends(self, sim, disk, params):
        wal = make_wal(sim, disk, params, capacity=200)
        wal.append(rec(1, size=100))
        wal.append(rec(2, size=100))
        blocked = wal.append(rec(3, size=100))
        sim.run()
        wal.prune_op((1, 1, 1))
        sim.run()
        assert blocked.processed
        assert wal.valid_bytes == 200

    def test_blocked_appends_admitted_fifo(self, sim, disk, params):
        wal = make_wal(sim, disk, params, capacity=100)
        wal.append(rec(1, size=100))
        b1 = wal.append(rec(2, size=100))
        b2 = wal.append(rec(3, size=100))
        wal.prune_op((1, 1, 1))
        assert b1.triggered or len(wal.records_of((1, 1, 2))) == 1
        assert not b2.triggered and wal.records_of((1, 1, 3)) == []
        sim.run()

    def test_free_bytes(self, sim, disk, params):
        wal = make_wal(sim, disk, params, capacity=1000)
        wal.append(rec(1, size=300))
        assert wal.free_bytes == 700
        unlimited = make_wal(sim, disk, params, capacity=None)
        assert unlimited.free_bytes is None
        sim.run()


class TestInvalidation:
    def test_invalidate_marks_record(self, sim, disk, params):
        wal = make_wal(sim, disk, params)
        r = rec(1)
        wal.append(r)
        wal.invalidate(r)
        assert not wal.has_record((1, 1, 1), "RESULT")
        sim.run()


class TestCrash:
    def test_unflushed_appends_lost_on_crash(self, sim, disk, params):
        wal = make_wal(sim, disk, params)
        wal.append(rec(1))
        sim.run()  # first record durable
        wal.append(rec(2))
        # crash before the flusher runs for record 2
        wal.crash()
        assert wal.has_record((1, 1, 1), "RESULT")
        assert wal.records_of((1, 1, 2)) == []
        assert wal.valid_bytes == 128

    def test_crash_clears_space_waiters(self, sim, disk, params):
        wal = make_wal(sim, disk, params, capacity=100)
        wal.append(rec(1, size=100))
        wal.append(rec(2, size=100))  # blocked
        wal.crash()
        wal.prune_op((1, 1, 1))
        assert wal.records_of((1, 1, 2)) == []
        sim.run()


class TestScanCost:
    def test_scales_with_contents(self, sim, disk, params):
        wal = make_wal(sim, disk, params)
        empty_cost = wal.scan_cost()
        for i in range(100):
            wal.append(rec(i, size=128))
        sim.run()
        assert wal.scan_cost() > empty_cost
