"""The log-full path (paper §III.D): a full log blocks new Result-Records
until an urgent commitment prunes space.

The fuzz workload with a 2 KiB log per server fills it fault-free: the
blocked appends run ``CxRole._on_log_full`` and wait in the WAL's space
queue, and every op still completes with a clean trace and namespace.
"""

from __future__ import annotations

from dataclasses import replace

from repro.faultfuzz.explorer import QUIESCE_TIMEOUT, _oracle, fuzz_task
from repro.runner.tasks import build_run


def test_full_log_blocks_and_drains():
    base = fuzz_task(0)
    task = replace(base, params={**base.params, "log_capacity": 2048})
    run = build_run(task)
    cluster = run.cluster
    calls = []
    for server in cluster.servers:
        hook = server.wal.on_full

        def counted(hook=hook):
            calls.append(1)
            hook()

        server.wal.on_full = counted
    cluster.drive(run.streams)
    cluster.quiesce_protocol(timeout=QUIESCE_TIMEOUT)

    assert cluster.metrics.total_ops == task.total_ops
    assert cluster.metrics.completed_ok == task.total_ops
    assert sum(s.wal.blocked_appends for s in cluster.servers) >= 1
    assert calls
    assert _oracle(cluster, run.workdir, task.protocol) == []
    assert not any(s.role.pending for s in cluster.servers)
