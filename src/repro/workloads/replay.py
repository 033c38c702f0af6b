"""Closed-loop replay engine.

Each client process replays its stream back-to-back (the next operation
starts when the previous completes from the process's view — which is
exactly where Cx's shorter critical path pays off).  The result bundles
the measurements every experiment needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable

from repro.analysis.metrics import MetricsCollector
from repro.fs.ops import FileOperation

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.client import ClientProcess


@dataclass
class ReplayResult:
    """Measurements of one replay run."""

    protocol: str
    replay_time: float
    total_ops: int
    throughput: float
    cross_server_ops: int
    conflicted_ops: int
    conflict_ratio: float
    messages: int
    message_bytes: int
    failed_ops: int
    mean_latency: float
    metrics: MetricsCollector = field(repr=False, default=None)  # type: ignore[assignment]
    #: The cluster's tracer when the replay ran with tracing enabled.
    tracer: object = field(repr=False, default=None)


def replay_streams(
    cluster: "Cluster",
    streams: Dict["ClientProcess", Iterable[FileOperation]],
    settle: float = 60.0,
    think_time: float = 0.0,
    collect: bool = False,
) -> ReplayResult:
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
    messages = cluster.network.stats.total
    message_bytes = cluster.network.stats.total_bytes

    m = cluster.metrics
    total = m.total_ops
    return ReplayResult(
        protocol=cluster.protocol.name,
        replay_time=replay_time,
        total_ops=total,
        throughput=total / replay_time if replay_time > 0 else 0.0,
        cross_server_ops=m.cross_server_ops,
        conflicted_ops=m.conflicted_ops,
        conflict_ratio=m.conflict_ratio,
        messages=messages,
        message_bytes=message_bytes,
        failed_ops=total - m.completed_ok,
        mean_latency=m.mean_latency(),
        metrics=m,
        tracer=cluster.tracer if cluster.tracer.enabled else None,
    )
