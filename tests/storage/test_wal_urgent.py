"""Urgent-append semantics: commitment records bypass the log cap.

Without this bypass a full log deadlocks: pruning requires
Commit/Abort/Complete records, which would themselves block on the full
log (found by the Figure 7(a) sweep; see DESIGN.md §5).
"""

import pytest

from repro.storage import Disk, LogRecord, WriteAheadLog


@pytest.fixture
def full_wal(sim, params):
    wal = WriteAheadLog(sim, Disk(sim, params), params, capacity=300)
    wal.append(LogRecord((1, 1, 1), "RESULT", size=150))
    wal.append(LogRecord((1, 1, 2), "RESULT", size=150))
    sim.run()
    assert wal.free_bytes == 0
    return wal


class TestUrgentAppend:
    def test_normal_append_blocks_when_full(self, sim, full_wal):
        blocked = full_wal.append(LogRecord((1, 1, 3), "RESULT", size=100))
        sim.run()
        assert not blocked.triggered
        assert full_wal.blocked_appends == 1

    def test_urgent_append_bypasses_cap(self, sim, full_wal):
        ev = full_wal.append(
            LogRecord((1, 1, 1), "COMMIT", size=100), urgent=True
        )
        sim.run()
        assert ev.processed
        assert full_wal.has_record((1, 1, 1), "COMMIT")
        # Urgent overshoot is temporary: valid bytes may exceed the cap
        # until the op is pruned.
        assert full_wal.valid_bytes == 400

    def test_urgent_then_prune_unblocks_normal_appends(self, sim, full_wal):
        blocked = full_wal.append(LogRecord((2, 1, 1), "RESULT", size=100))
        full_wal.append(LogRecord((1, 1, 1), "COMMIT", size=50), urgent=True)
        full_wal.append(LogRecord((1, 1, 1), "COMPLETE", size=50), urgent=True)
        full_wal.prune_op((1, 1, 1))  # frees 150 + 100 urgent bytes
        sim.run()
        assert blocked.processed
        assert full_wal.has_record((2, 1, 1), "RESULT")

    def test_deadlock_scenario_resolved(self, sim, params):
        """The exact Fig. 7(a) failure: full log, commitment must write
        its records to prune — urgent appends make progress possible."""
        wal = WriteAheadLog(sim, Disk(sim, params), params, capacity=256)
        launched = []
        wal.on_full = lambda: launched.append(True)
        for i in range(2):
            wal.append(LogRecord((1, 1, i), "RESULT", size=128))
        stuck = wal.append(LogRecord((1, 1, 9), "RESULT", size=128))
        assert launched  # the pruning hook fired
        # The "commitment" the hook would launch:
        for i in range(2):
            wal.append(LogRecord((1, 1, i), "COMMIT", size=64), urgent=True)
            wal.append(LogRecord((1, 1, i), "COMPLETE", size=64), urgent=True)
            wal.prune_op((1, 1, i))
        sim.run()
        assert stuck.processed  # no deadlock
