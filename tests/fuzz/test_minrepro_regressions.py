"""Pinned minimal-repro fault schedules from the crash-window hunt.

Each test replays the exact fault schedule the fuzz explorer minimised
for a defect that used to fail ``python -m repro fuzz --seed 0`` —
no exploration, just the one deterministic replay per defect class.
The fault lists are frozen copies of ``generate_schedule(0, index, 4)``
at the time the bugs were found, so they stay stable even if the
schedule generator's fault mix changes later.

The three defect classes (see DESIGN.md, "The crash-recovery
contract"):

1. **Unsolicited vote replies** — a YES/NO landing after the
   commit-RPC watchdog defused its waiter (or after a coordinator
   reboot) used to raise ``ValueError('Cx server got unexpected
   MessageKind.YES')`` in the dispatcher; verdict ``crashed``.
2. **Zombie commitment generators** — a crash mid-batch tore the
   COMMIT records out of the WAL, but the flusher's completion handle
   still woke the batch generator, which then emitted decisions for
   records the log no longer held; recovery re-voted, the participant
   had lost its vote, and the two halves of the op diverged
   (``[dangling-entry]`` / orphan-inode violations).
3. **Crash-instant ConnectionError unwinding** — the crash fails the
   server's own in-flight RPCs with ``ConnectionError``; the
   retry-or-park handler used to treat that as a *peer* loss and park
   pre-crash decisions into the post-crash epoch, and a decide handler
   armed just before the crash could blanket-prune a Result-Record
   that was recovery's only redo copy.
"""

from repro.faultfuzz import Fault, run_schedule


def _replay(fault_dicts, seed=0):
    faults = [Fault.from_dict(d) for d in fault_dicts]
    res = run_schedule(faults, seed=seed)
    assert res.verdict == "ok", (
        f"verdict={res.verdict} violations={res.violations} "
        f"error={res.error}"
    )


class TestMinreproRegressions:
    def test_unsolicited_vote_reply_after_watchdog(self):
        """Seed 0 schedule 72: a delayed+duplicated vote reply arrives
        after the commit-RPC watchdog already gave up on the waiter.
        Used to crash the dispatcher with 'unexpected MessageKind.YES';
        now dropped like an unsolicited ACK."""
        _replay([
            {"kind": "delay", "at": 139, "a": -1, "b": -1,
             "until": -1, "extra": 1.239959},
            {"kind": "dup", "at": 189, "a": -1, "b": -1,
             "until": -1, "extra": 1.435806},
            {"kind": "crash", "at": 2484, "a": 1, "b": -1,
             "until": -1, "extra": 0.0},
        ])

    def test_unsolicited_vote_reply_after_reboot(self):
        """Seed 0 schedule 84: two crashes straddle a duplicated vote;
        the rebooted coordinator received a reply for an RPC from its
        previous life.  Same dispatcher crash as schedule 72 via the
        reboot path."""
        _replay([
            {"kind": "crash", "at": 67, "a": 2, "b": -1,
             "until": -1, "extra": 0.0},
            {"kind": "dup", "at": 127, "a": -1, "b": -1,
             "until": -1, "extra": 1.708444},
            {"kind": "crash", "at": 202, "a": 3, "b": -1,
             "until": -1, "extra": 0.0},
        ])

    def test_zombie_commit_batch_after_crash(self):
        """Seed 0 schedule 65: crash lands mid commit batch.  The WAL
        flusher's in-flight completion still fired, waking the batch
        generator after ``wal.crash()`` tore its records out of the
        log; it emitted a decision, committed the peer, and parked —
        then recovery re-voted the op and aborted the other half
        ([dangling-entry]).  The server now kills the batch process in
        ``crash()`` itself (it owns what it spawned), and the decide
        handler prunes only the ops it actually processed."""
        _replay([
            {"kind": "drop", "at": 18, "a": -1, "b": -1,
             "until": -1, "extra": 0.0},
            {"kind": "dup", "at": 135, "a": -1, "b": -1,
             "until": -1, "extra": 0.886752},
            {"kind": "dup", "at": 211, "a": -1, "b": -1,
             "until": -1, "extra": 1.279352},
            {"kind": "crash", "at": 1233, "a": 2, "b": -1,
             "until": -1, "extra": 0.0},
            {"kind": "crash", "at": 2156, "a": 1, "b": -1,
             "until": -1, "extra": 0.0},
        ])

    def test_crash_instant_rpc_failure_unwinds_as_stale(self):
        """Seed 0 schedule 3: partition plus crash.  The crash failed
        the coordinator's own pending RPCs with ConnectionError thrown
        *into* the yield — the commit group took it for a peer loss and
        parked five pre-crash decisions into the next incarnation's
        table.  The group is dead before the crash fails those RPCs
        now, and a wait whose only waiter was killed is defused."""
        _replay([
            {"kind": "delay", "at": 121, "a": -1, "b": -1,
             "until": -1, "extra": 1.251815},
            {"kind": "drop", "at": 155, "a": -1, "b": -1,
             "until": -1, "extra": 0.0},
            {"kind": "partition", "at": 1112, "a": 0, "b": 2,
             "until": 3868, "extra": 0.0},
            {"kind": "crash", "at": 2477, "a": 1, "b": -1,
             "until": -1, "extra": 0.0},
        ])


class TestRecoveryReentersLivePipeline:
    """Not former failures: the two certified schedules that load the
    path recovery shares with the live commitment hardest, pinned
    verdict-``ok`` so a change to deliver/settle meets them first."""

    def test_thirteen_decided_ops_in_one_recovery(self):
        """Seed 0 schedule 8: the crash leaves 13 coordinator ops
        decided but not completed — one batched COMMIT-REQ per
        participant and one settle, where recovery used to pay a round
        trip and a Complete flush per op."""
        _replay([
            {"kind": "drop", "at": 180, "a": -1, "b": -1,
             "until": -1, "extra": 0.0},
            {"kind": "crash", "at": 1567, "a": 3, "b": -1,
             "until": -1, "extra": 0.0},
        ])

    def test_decided_op_parked_by_recovery_behind_a_partition(self):
        """Seed 1 schedule 43: server 0 crashes inside a 0–3 partition,
        so its recovery adopts four decisions and can deliver only two;
        the rest stay parked and the ordinary trigger scan re-delivers
        them after the heal."""
        _replay([
            {"kind": "delay", "at": 14, "a": -1, "b": -1,
             "until": -1, "extra": 0.743228},
            {"kind": "drop", "at": 51, "a": -1, "b": -1,
             "until": -1, "extra": 0.0},
            {"kind": "dup", "at": 167, "a": -1, "b": -1,
             "until": -1, "extra": 0.330524},
            {"kind": "partition", "at": 942, "a": 0, "b": 3,
             "until": 4304, "extra": 0.0},
            {"kind": "crash", "at": 1331, "a": 0, "b": -1,
             "until": -1, "extra": 0.0},
            {"kind": "crash", "at": 1484, "a": 0, "b": -1,
             "until": -1, "extra": 0.0},
        ], seed=1)
