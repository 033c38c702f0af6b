"""Closed-loop replay engine.

Each client process replays its stream back-to-back (the next operation
starts when the previous completes from the process's view — which is
exactly where Cx's shorter critical path pays off).  The result is the
one picklable record every experiment, the runner and the traced
replay read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable

from repro.fs.ops import FileOperation

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.client import ClientProcess


@dataclass
class ReplaySummary:
    """Picklable measurements of one replay.

    :func:`replay_streams` fills the scalars up to ``mean_latency``;
    :func:`repro.runner.execute_task` adds the latency tail,
    ``events_processed`` and the per-server metrics snapshots (live
    registries do not cross process boundaries), and scale cells the
    setup/replay wall split.
    """

    protocol: str
    replay_time: float
    total_ops: int
    throughput: float = 0.0
    cross_server_ops: int = 0
    conflicted_ops: int = 0
    conflict_ratio: float = 0.0
    messages: int = 0
    message_bytes: int = 0
    failed_ops: int = 0
    mean_latency: float = 0.0
    #: Client-visible latency tail (seconds; 0.0 when no ops ran).
    latency_p50: float = 0.0
    latency_p99: float = 0.0
    latency_p999: float = 0.0
    #: Kernel events the simulator popped to produce this cell.
    events_processed: int = 0
    #: node id -> MetricsRegistry snapshot, plus a merged "cluster" key.
    server_metrics: Dict[str, dict] = field(default_factory=dict)
    #: Scale cells only: wall-clock seconds spent building the cluster
    #: and preloading the namespace, vs replaying the streams — the
    #: setup-off-the-critical-path split the scale table reports.
    setup_wall_seconds: float = 0.0
    replay_wall_seconds: float = 0.0
    #: Scale cells only: servers actually constructed (lazy build)
    #: out of the configured total.
    servers_materialized: int = 0
    num_servers: int = 0


def replay_streams(
    cluster: "Cluster",
    streams: Dict["ClientProcess", Iterable[FileOperation]],
    settle: float = 60.0,
    think_time: float = 0.0,
    collect: bool = False,
) -> ReplaySummary:
    """Run every stream to completion and collect measurements.

    The streams run through :meth:`Cluster.drive
    <repro.cluster.builder.Cluster.drive>`, so a replay that stops
    completing ops raises :class:`~repro.cluster.builder.Stalled`.
    ``settle`` bounds the extra virtual time allowed for protocol
    background work after the last stream finishes (lazy commitments,
    flushes) so the namespace is quiesced for consistency checks.
    ``think_time`` inserts application-side time between a process's
    operations (the MPI benchmark's own work between calls).

    Per-op results are folded into ``cluster.metrics`` and dropped, so
    a replay's memory does not grow with stream length: the scale
    family's million-op cells feed lazy generators.  ``collect`` is
    ignored; it is accepted because ``bench/workloads.py`` still passes
    it.
    """
    sim = cluster.sim
    cluster.network.stats.reset()
    start = sim.now
    cluster.drive(streams, think_time=think_time)
    replay_time = sim.now - start

    # Let lazy commitments and flushes drain before counting messages:
    # commitment traffic is part of the protocol's cost (Table IV).
    cluster.quiesce_protocol(timeout=settle)

    m = cluster.metrics
    total = m.total_ops
    return ReplaySummary(
        protocol=cluster.protocol.name,
        replay_time=replay_time,
        total_ops=total,
        throughput=total / replay_time if replay_time > 0 else 0.0,
        cross_server_ops=m.cross_server_ops,
        conflicted_ops=m.conflicted_ops,
        conflict_ratio=m.conflict_ratio,
        messages=cluster.network.stats.total,
        message_bytes=cluster.network.stats.total_bytes,
        failed_ops=total - m.completed_ok,
        mean_latency=m.mean_latency(),
    )
