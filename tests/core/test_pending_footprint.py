"""What an in-flight Cx op holds, pinned.

Under lazy commitment every executed-but-uncommitted sub-op stays in its
server's pending table until a trigger fires, so the pending set is the
protocol's working set and its per-op bytes set a large replay's peak
memory.  A small flood replay is driven to the instant its last client
op completes (nothing committed yet), and then part of the way into the
commit wave that follows.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from repro.core.records import PendingOp, PendingState
from repro.runner.tasks import ReplayTask, build_run

#: 16 lazily built servers, 2,048 flood ops: the whole replay finishes
#: inside one commit-trigger window, so every op is still pending.
TASK = ReplayTask(kind="synth", mix="flood", num_servers=16,
                  total_ops=2048, seed=0)

#: Traced bytes the drive leaves held per pending sub-op, measured under
#: CPython 3.11 (object layouts differ between minor versions).  The
#: bound allows 10 % on top; before the pending-op trims it read 3,318.
PENDING_BYTES = 2437
MEASURED_ON = (3, 11)
SLACK = 1.10


def _drive():
    """Build :data:`TASK`, drive it; return (cluster, roles, held bytes)."""
    run = build_run(TASK)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run.cluster.drive(run.streams)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    roles = [s.role for s in run.cluster.materialized_servers()]
    return run.cluster, roles, held


@pytest.fixture(scope="module")
def driven():
    return _drive()


def _pending(roles):
    return [p for r in roles for p in r.pending.values()]


def test_everything_is_pending_when_the_drive_ends(driven):
    _cluster, roles, _held = driven
    pend = _pending(roles)
    assert len(pend) > TASK.total_ops  # a cross-server op has two halves
    assert all(p.state is PendingState.EXECUTED for p in pend)


def test_no_copies_of_what_the_execution_holds(driven):
    """No ``touched`` list on a result, no reply dict, no Result-Record
    payload dict: a pending op keeps values and references only."""
    _cluster, roles, _held = driven
    for p in _pending(roles):
        assert not hasattr(p.result, "touched")
        for name in PendingOp.__slots__:
            assert not isinstance(getattr(p, name), dict), name
        assert type(p.reply) is tuple
        assert p.record.payload.result is p.result
        assert p.waiter is None
        # Only a cross-server op can be invalidated and re-queued.
        assert (p.req_msg is not None) == (p.role != "single")


def test_bytes_per_pending_op(driven):
    if sys.version_info[:2] != MEASURED_ON:
        pytest.skip("per-op bytes are pinned for CPython 3.11 only")
    _cluster, roles, held = driven
    per_op = held / len(_pending(roles))
    assert per_op <= PENDING_BYTES * SLACK, f"{per_op:.0f} B per pending op"


def test_requests_dropped_once_they_cannot_be_requeued():
    """A decided coordinator op and a voted participant op can no longer
    be invalidated, so neither keeps the client's request."""
    cluster, roles, _held = _drive()
    for role in roles:
        role.flush_now()
    cluster.sim.run(until=cluster.sim.now + 0.0005)  # mid commit wave
    decided = [p for p in _pending(roles)
               if p.role == "coord" and p.decided is not None]
    voted = [p for p in _pending(roles)
             if p.role == "part" and p.state is PendingState.COMMITTING]
    assert decided and voted
    assert all(p.req_msg is None for p in decided + voted)
