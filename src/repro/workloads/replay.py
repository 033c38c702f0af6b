"""Closed-loop replay engine.

Each client process replays its stream back-to-back (the next operation
starts when the previous completes from the process's view — which is
exactly where Cx's shorter critical path pays off).  The result bundles
the measurements every experiment needs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.analysis.metrics import MetricsCollector
from repro.fs.ops import FileOperation
from repro.sim import QueueDrained

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


@contextmanager
def deadlock_reported(what: str) -> Iterator[None]:
    """Report a queue that drains under a kernel drive as a deadlock.

    Every process exited with the awaited event still pending; any
    other simulation failure passes through untouched.
    """
    try:
        yield
    except QueueDrained as exc:
        raise RuntimeError(f"{what} deadlocked: event queue drained") from exc


def replay_streams(
    cluster: "Cluster",
    streams: Dict["ClientProcess", List[FileOperation]],
    settle: float = 60.0,
    max_virtual_time: Optional[float] = None,
    think_time: float = 0.0,
    collect: bool = True,
) -> ReplayResult:
    """Run every stream to completion and collect measurements.

    ``settle`` bounds the extra virtual time allowed for protocol
    background work after the last stream finishes (lazy commitments,
    flushes) so the namespace is quiesced for consistency checks.
    ``think_time`` inserts application-side time between a process's
    operations (the MPI benchmark's own work between calls).

    ``collect=False`` is the streaming mode: per-op results are folded
    into ``cluster.metrics`` and dropped instead of accumulated, so a
    replay's memory footprint is independent of stream length —
    required by the scale family's million-op cells, whose streams are
    lazy generators rather than lists.
    """
    sim = cluster.sim
    cluster.network.stats.reset()

    def _runner(proc, ops):
        results = []
        for op in ops:
            res = yield from proc.perform(op)
            results.append(res)
            if think_time > 0:
                yield sim.timeout(think_time)
        return results

    def _runner_streaming(proc, ops):
        for op in ops:
            yield from proc.perform(op)
            if think_time > 0:
                yield sim.timeout(think_time)

    body = _runner if collect else _runner_streaming
    runners = [
        sim.process(body(proc, ops)) for proc, ops in streams.items()
    ]
    done = sim.all_of(runners)

    start = sim.now
    with deadlock_reported("replay"):
        if max_virtual_time is None:
            sim.run_until(done)
        else:
            while not done.processed:
                if sim.now - start > max_virtual_time:
                    raise RuntimeError(
                        f"replay exceeded {max_virtual_time}s of virtual time"
                    )
                sim.step()
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
