"""Picklable replay-task specs and their worker-side execution.

A :class:`ReplayTask` is a pure-data description of one independent
replay cell — (trace × protocol × num_servers × seed), a Metarates
point, or a conflict-injection cell.  Tasks cross process boundaries
(``ProcessPoolExecutor`` pickles them into workers), so they hold only
strings and numbers; the worker rebuilds the cluster and workload from
the spec, replays, and ships back a :class:`ReplaySummary` — again pure
data, including the per-server metrics snapshots that the parent merges
into the cluster-wide view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: Task kinds understood by :func:`execute_task`.
KIND_TRACE = "trace"
KIND_METARATES = "metarates"
KIND_INJECT = "inject"
KIND_SYNTH = "synth"


@dataclass(frozen=True)
class ReplayTask:
    """One independent replay cell, fully described by picklable data.

    ``kind`` selects the workload family:

    * ``"trace"`` — replay one synthetic trace under one protocol at
      the canonical configuration (fig5 / table2 / table4 cells);
    * ``"metarates"`` — one Metarates point: ``update_fraction`` at
      ``num_servers`` under one protocol (fig6 cells);
    * ``"inject"`` — a Cx trace replay with probability-``p_inject``
      conflict probes (fig8 cells);
    * ``"synth"`` — one scale-family cell: a streaming synthetic
      workload (``mix`` from :data:`repro.workloads.synth.SYNTH_MIXES`)
      replayed on a lazily-built cluster with bounded streaming
      metrics.

    ``params`` carries :class:`~repro.params.SimParams` field overrides
    as a plain dict so the spec stays picklable.
    """

    kind: str
    protocol: str = "cx"
    trace: Optional[str] = None
    num_servers: Optional[int] = None
    seed: int = 0
    scale: Optional[float] = None
    #: "inject" only: per-operation probe probability.
    p_inject: float = 0.0
    #: "metarates" only.
    update_fraction: float = 0.8
    ops_per_process: int = 30
    preload_per_server: int = 400
    think_time: float = 0.0
    #: "synth" only: named workload mix, total ops across processes,
    #: and optional spec-knob overrides (None keeps the mix default).
    mix: Optional[str] = None
    total_ops: int = 100_000
    cross_frac: Optional[float] = None
    zipf_s: Optional[float] = None
    hot_dirs: Optional[int] = None
    #: "synth" only: client-fleet shape (None -> 32 machines x 8 procs,
    #: a fixed offered load so throughput is comparable across the
    #: server-count axis).
    num_clients: Optional[int] = None
    procs_per_client: Optional[int] = None
    #: SimParams overrides, picklable (e.g. {"commit_timeout": 0.1}).
    params: Optional[Dict[str, object]] = None
    #: Free-form tag echoed on the outcome (experiment row bookkeeping).
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (KIND_TRACE, KIND_METARATES, KIND_INJECT,
                             KIND_SYNTH):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.kind in (KIND_TRACE, KIND_INJECT) and self.trace is None:
            raise ValueError(f"{self.kind!r} task needs a trace name")
        if self.kind == KIND_SYNTH and self.mix is None:
            raise ValueError("'synth' task needs a mix name")


@dataclass
class ReplaySummary:
    """Picklable measurements of one executed task.

    The scalar fields mirror :class:`~repro.workloads.replay.ReplayResult`
    (live object graphs — the metrics collector, the tracer — do not
    cross process boundaries; per-server registries travel as snapshot
    dicts instead).
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


def _params_from(task: ReplayTask):
    from repro.experiments.common import experiment_params

    return experiment_params(**(task.params or {}))


def _summarize(cluster, result) -> ReplaySummary:
    return ReplaySummary(
        protocol=result.protocol,
        replay_time=result.replay_time,
        total_ops=result.total_ops,
        throughput=result.throughput,
        cross_server_ops=result.cross_server_ops,
        conflicted_ops=result.conflicted_ops,
        conflict_ratio=result.conflict_ratio,
        messages=result.messages,
        message_bytes=result.message_bytes,
        failed_ops=result.failed_ops,
        mean_latency=result.mean_latency,
        latency_p50=cluster.metrics.latency_percentile(50),
        latency_p99=cluster.metrics.latency_percentile(99),
        latency_p999=cluster.metrics.latency_percentile(99.9),
        events_processed=cluster.sim.events_processed,
        server_metrics=cluster.metrics_snapshot(),
    )


def execute_task(task: ReplayTask) -> ReplaySummary:
    """Run one task to completion in this process.

    Deterministic for a fixed spec: the cluster, workload, and replay
    are all seeded from the task itself, so the outcome is independent
    of which worker runs it and in what order.

    Runs inside a :func:`~repro.sim.kernel_sprint` (cyclic GC paused):
    the replay hot path is cycle-free, and collector pauses otherwise
    eat a measurable slice of every cell.
    """
    from repro.sim import kernel_sprint

    with kernel_sprint():
        return _execute_task(task)


def _execute_task(task: ReplayTask) -> ReplaySummary:
    # Imported here, not at module top: workers may be freshly spawned
    # interpreters, and the experiment layer must not import the runner
    # at import time (it does the reverse).
    from repro.experiments.common import (
        NUM_SERVERS,
        TRACE_SCALES,
        build_trace_cluster,
    )
    from repro.workloads import (
        TRACE_SPECS,
        TraceWorkload,
        replay_streams,
        replay_streams_with_injection,
    )

    num_servers = task.num_servers if task.num_servers is not None else NUM_SERVERS

    if task.kind == KIND_TRACE or task.kind == KIND_INJECT:
        cluster = build_trace_cluster(
            task.protocol,
            params=_params_from(task),
            num_servers=num_servers,
            seed=task.seed,
        )
        scale = task.scale if task.scale is not None else TRACE_SCALES[task.trace]
        streams = TraceWorkload(
            TRACE_SPECS[task.trace], scale=scale, seed=task.seed
        ).build(cluster, cluster.all_processes())
        if task.kind == KIND_TRACE:
            return _summarize(cluster, replay_streams(cluster, streams))
        measures = replay_streams_with_injection(
            cluster, streams, p_inject=task.p_inject, seed=task.seed
        )
        m = cluster.metrics
        return ReplaySummary(
            protocol=cluster.protocol.name,
            replay_time=measures["replay_time"],
            total_ops=int(measures["total_ops"]),
            throughput=(
                measures["total_ops"] / measures["replay_time"]
                if measures["replay_time"] > 0 else 0.0
            ),
            cross_server_ops=m.cross_server_ops,
            conflicted_ops=m.conflicted_ops,
            conflict_ratio=measures["conflict_ratio"],
            messages=int(measures["messages"]),
            message_bytes=cluster.network.stats.total_bytes,
            failed_ops=m.total_ops - m.completed_ok,
            mean_latency=m.mean_latency(),
            latency_p50=m.latency_percentile(50),
            latency_p99=m.latency_percentile(99),
            latency_p999=m.latency_percentile(99.9),
            events_processed=cluster.sim.events_processed,
            server_metrics=cluster.metrics_snapshot(),
        )

    if task.kind == KIND_SYNTH:
        return _execute_synth(task, num_servers)

    if task.kind == KIND_METARATES:
        from repro.cluster.builder import Cluster
        from repro.protocols import get_protocol
        from repro.workloads import MetaratesWorkload

        cluster = Cluster.build(
            num_servers=num_servers,
            num_clients=4 * num_servers,      # paper: clients = 4 x servers
            protocol=get_protocol(task.protocol),
            params=_params_from(task),
            procs_per_client=8,               # paper: 8 processes per client
            seed=task.seed,
        )
        wl = MetaratesWorkload(
            update_fraction=task.update_fraction,
            ops_per_process=task.ops_per_process,
            preload_per_server=task.preload_per_server,
            seed=task.seed,
        )
        streams = wl.build(cluster, cluster.all_processes())
        result = replay_streams(cluster, streams, think_time=task.think_time)
        return _summarize(cluster, result)

    raise ValueError(f"unknown task kind {task.kind!r}")  # pragma: no cover


def _execute_synth(task: ReplayTask, num_servers: int) -> ReplaySummary:
    """One scale cell: lazy cluster + streaming workload + streaming replay.

    Memory discipline for million-op cells: the op streams are lazy
    generators (no materialized lists), the replay discards per-op
    results (``collect=False``), the cluster uses the bounded
    streaming metrics collector, and the summary ships only the merged
    ``cluster`` registry aggregate over *materialized* servers — never
    256 per-server snapshot dicts.  Setup (cluster build + namespace
    preload) and replay wall time are clocked separately.
    """
    import time

    from repro.cluster.builder import Cluster
    from repro.obs.registry import merge_snapshots
    from repro.protocols import get_protocol
    from repro.workloads import replay_streams
    from repro.workloads.synth import SYNTH_MIXES, SynthWorkload

    if task.mix not in SYNTH_MIXES:
        raise ValueError(
            f"unknown synth mix {task.mix!r}; "
            f"available: {', '.join(sorted(SYNTH_MIXES))}"
        )
    setup_start = time.perf_counter()
    cluster = Cluster.build(
        num_servers=num_servers,
        num_clients=task.num_clients if task.num_clients is not None else 32,
        protocol=get_protocol(task.protocol),
        params=_params_from(task),
        procs_per_client=(
            task.procs_per_client if task.procs_per_client is not None else 8
        ),
        seed=task.seed,
        lazy_servers=True,
        streaming_metrics=True,
    )
    wl = SynthWorkload(
        SYNTH_MIXES[task.mix],
        total_ops=task.total_ops,
        seed=task.seed,
        cross_frac=task.cross_frac,
        zipf_s=task.zipf_s,
        hot_dirs=task.hot_dirs,
    )
    streams = wl.streams(cluster, cluster.all_processes())
    setup_wall = time.perf_counter() - setup_start

    replay_start = time.perf_counter()
    result = replay_streams(
        cluster, streams, think_time=task.think_time, collect=False
    )
    replay_wall = time.perf_counter() - replay_start

    m = cluster.metrics
    materialized = cluster.materialized_servers()
    return ReplaySummary(
        protocol=result.protocol,
        replay_time=result.replay_time,
        total_ops=result.total_ops,
        throughput=result.throughput,
        cross_server_ops=result.cross_server_ops,
        conflicted_ops=result.conflicted_ops,
        conflict_ratio=result.conflict_ratio,
        messages=result.messages,
        message_bytes=result.message_bytes,
        failed_ops=result.failed_ops,
        mean_latency=result.mean_latency,
        latency_p50=m.latency_percentile(50),
        latency_p99=m.latency_percentile(99),
        latency_p999=m.latency_percentile(99.9),
        events_processed=cluster.sim.events_processed,
        server_metrics={
            "cluster": merge_snapshots(s.metrics for s in materialized)
        },
        setup_wall_seconds=setup_wall,
        replay_wall_seconds=replay_wall,
        servers_materialized=len(materialized),
        num_servers=num_servers,
    )
