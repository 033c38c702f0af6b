"""Idle commit-trigger ticks are fast-forwarded, exactly.

``quiesce_protocol`` runs a window of virtual time in which, once the
lazy commitments have drained, nothing is queued but every server's
commit-trigger tick.  The kernel replays those ticks without dispatching
them when — and only when — every server is idle; a far-away event-index
probe forces one-by-one dispatch and is the reference.
"""

from types import SimpleNamespace

import pytest

from repro import SimParams
from tests.conftest import build_cluster

PERIOD = 0.25
WINDOW = 120.0
TICKS = int(WINDOW / PERIOD)


def _cluster(stepwise: bool):
    cluster = build_cluster(
        num_servers=8, params=SimParams(commit_timeout=PERIOD), trace=False
    )
    if stepwise:
        cluster.sim.arm_probe(10**12, lambda: None)
    calls = []  # (server index, what, fires)
    for server in cluster.servers:
        trig = server.role.triggers
        for hook in ("launch", "scan", "on_fire"):
            def spy(*args, _i=server.index, _hook=hook, _real=getattr(trig, hook)):
                calls.append((_i, _hook, args[1] if len(args) > 1 else 1))
                return _real(*args)
            setattr(trig, hook, spy)
    return cluster, calls


def _observed(cluster):
    sim = cluster.sim
    return (
        sim.now, sim.events_processed, sim.seq,
        [s.role.triggers.timeout_fires for s in cluster.servers],
        [s.metrics.counter("trigger.timeout").value for s in cluster.servers],
    )


def test_idle_cluster_skips_every_tick_and_counts_them_all():
    fast, fast_calls = _cluster(stepwise=False)
    step, step_calls = _cluster(stepwise=True)
    fast.quiesce_protocol(WINDOW)
    step.quiesce_protocol(WINDOW)
    assert _observed(fast) == _observed(step)
    assert _observed(fast)[3] == [TICKS] * 8
    # Neither drive launches or scans on an idle tick ...
    assert {what for _i, what, _k in fast_calls + step_calls} == {"on_fire"}
    # ... but only the fast one is told about a whole window at once.
    assert sorted(fast_calls) == [(i, "on_fire", TICKS) for i in range(8)]
    assert sorted(step_calls) == sorted(
        [(i, "on_fire", 1) for i in range(8)] * TICKS
    )


@pytest.mark.parametrize("table", ["pending", "lazy", "parked", "votes"])
def test_one_busy_server_keeps_the_whole_cluster_ticking(table):
    fast, calls = _cluster(stepwise=False)
    step, _ = _cluster(stepwise=True)
    # Something the scans must keep looking at, but will never act on: a
    # coordinator-role op in a state neither the launcher nor the
    # re-solicit scan touches, with nothing in flight on its behalf.
    stuck = SimpleNamespace(role="coord", state=None)
    for cluster in (fast, step):
        role = cluster.servers[3].role
        role._redelivery = cluster.sim.event()  # "in flight"
        {
            "pending": role.pending,
            "lazy": role.commit_mgr.lazy,
            "parked": role.commit_mgr.parked,
            "votes": role.participant._vote_waiters,
        }[table]["stuck-op"] = (
            [(cluster.sim.event(), 1e9)] if table == "votes" else stuck
        )  # a vote waiter armed "at" 1e9 never counts as overdue
        cluster.quiesce_protocol(WINDOW)
    assert _observed(fast) == _observed(step)
    # Server 3 ran its launcher and its scan on every tick; the seven idle
    # servers ticked one by one beside it (counted, never batched).
    for hook in ("launch", "scan"):
        assert [c for c in calls if c[1] == hook] == [(3, hook, 1)] * TICKS
    assert sorted(c for c in calls if c[1] == "on_fire") == sorted(
        [(i, "on_fire", 1) for i in range(8)] * TICKS
    )
