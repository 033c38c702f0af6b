"""Picklable replay-task specs, the one builder, and their execution.

A :class:`ReplayTask` is a pure-data description of one independent
replay cell — (trace × protocol × num_servers × seed), a Metarates
point, a conflict-injection cell, a scale cell, or the fuzzer's
workload.  Tasks cross process boundaries (``ProcessPoolExecutor``
pickles them into workers), so they hold only strings and numbers.
:func:`build_run` is the one place a spec becomes a live cluster and
its per-process op feeds; every driver — the runner, the traced
replay, the figures and the fuzzer — builds through it.
:func:`execute_task` replays the run and ships back a
:class:`~repro.workloads.replay.ReplaySummary` — again pure data,
including the per-server metrics snapshots that the parent merges into
the cluster-wide view.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from repro.params import SimParams
from repro.protocols import PROTOCOL_NAMES
from repro.workloads import SYNTH_MIXES, TRACE_SPECS, ReplaySummary, replay_streams

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.client import ClientProcess
    from repro.fs.ops import FileOperation

#: Task kinds understood by :func:`build_run`.
KINDS = ("trace", "metarates", "inject", "synth", "fuzz")

#: Keys a task's ``params`` may override.
_PARAM_NAMES = frozenset(f.name for f in fields(SimParams))


@dataclass(frozen=True)
class ReplayTask:
    """One independent replay cell, fully described by picklable data.

    ``kind`` selects the workload family:

    * ``"trace"`` — replay one synthetic trace under one protocol at
      the canonical configuration (fig5 / table2 / table4 cells);
    * ``"metarates"`` — one Metarates point: ``update_fraction`` at
      ``num_servers`` under one protocol (fig6 cells);
    * ``"inject"`` — a trace replay with probability-``p_inject``
      conflict probes (fig8 cells);
    * ``"synth"`` — one scale-family cell: a streaming synthetic
      workload (``mix`` from :data:`repro.workloads.synth.SYNTH_MIXES`)
      replayed on a lazily-built cluster with bounded streaming
      metrics;
    * ``"fuzz"`` — the fault explorer's workload: ``total_ops``
      CREATEs split evenly over the processes into a preloaded
      ``fuzzdir`` (beside a ``canary`` file), traced, with
      placement-allocated handles (see
      :func:`repro.faultfuzz.explorer.fuzz_task`).

    ``params`` carries :class:`~repro.params.SimParams` field overrides
    as a plain dict so the spec stays picklable.  A spec naming an
    unknown kind, protocol, trace, mix or ``params`` key, or a scale
    outside (0, 1], is rejected on construction, so every caller gets
    the same check.
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
    #: "synth" only: named workload mix and optional spec-knob
    #: overrides (None keeps the mix default).  ``total_ops`` is the op
    #: count across processes for "synth" and "fuzz".
    mix: Optional[str] = None
    total_ops: int = 100_000
    cross_frac: Optional[float] = None
    zipf_s: Optional[float] = None
    hot_dirs: Optional[int] = None
    #: Client-fleet shape; None keeps the kind's canonical fleet (4
    #: machines for traces and fuzz, 4 per server for Metarates, 32 for
    #: a scale cell, whose fixed offered load keeps throughput
    #: comparable across the server-count axis; 8 processes each).
    num_clients: Optional[int] = None
    procs_per_client: Optional[int] = None
    #: SimParams overrides, picklable (e.g. {"commit_timeout": 0.1}).
    params: Optional[Dict[str, object]] = None
    #: Free-form tag echoed on the outcome (experiment row bookkeeping).
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.protocol not in PROTOCOL_NAMES:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                f"available: {', '.join(PROTOCOL_NAMES)}"
            )
        if self.kind in ("trace", "inject") and self.trace not in TRACE_SPECS:
            raise ValueError(
                f"unknown workload trace {self.trace!r}; "
                f"available: {', '.join(TRACE_SPECS)}"
            )
        if self.kind == "synth" and self.mix not in SYNTH_MIXES:
            raise ValueError(
                f"unknown synth mix {self.mix!r}; "
                f"available: {', '.join(sorted(SYNTH_MIXES))}"
            )
        if self.scale is not None and not 0 < self.scale <= 1:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        unknown = sorted(set(self.params or ()) - _PARAM_NAMES)
        if unknown:
            raise ValueError(f"params: unknown SimParams field {', '.join(unknown)}")


@dataclass
class Run:
    """A task made live: its cluster and one op feed per client process."""

    cluster: "Cluster"
    streams: Dict["ClientProcess", Iterable["FileOperation"]]
    #: Post-replay settle window and per-op think time of the replay.
    settle: float = 60.0
    think_time: float = 0.0
    #: "fuzz" only: handles of the preloaded work directory and canary.
    workdir: int = -1
    canary: int = -1

    def replay(self) -> ReplaySummary:
        return replay_streams(self.cluster, self.streams,
                              settle=self.settle, think_time=self.think_time)


def build_run(task: ReplayTask, tracer=None) -> Run:
    """The one place a spec becomes a live cluster and its op feeds.

    Deterministic for a fixed spec: the cluster and workload are seeded
    from the task itself, so the run is independent of which worker
    builds it.  ``tracer`` traces the run; a "fuzz" run always traces
    (its oracle reads the trace), with a full tracer by default.
    """
    # Imported here, not at module top: the experiment layer imports
    # the runner at import time, not the reverse.
    from repro.cluster.builder import ROOT_HANDLE, Cluster
    from repro.experiments.common import (
        NUM_CLIENTS,
        NUM_SERVERS,
        PROCS_PER_CLIENT,
        TRACE_SCALES,
        experiment_params,
    )
    from repro.fs.ops import FileOperation, OpType
    from repro.protocols import get_protocol
    from repro.workloads import MetaratesWorkload, SynthWorkload, TraceWorkload
    from repro.workloads.inject import INJECT_SETTLE, inject_probes

    kind = task.kind
    num_servers = task.num_servers if task.num_servers is not None else NUM_SERVERS
    num_clients = task.num_clients
    if num_clients is None:
        num_clients = {"metarates": 4 * num_servers,   # paper: 4 x servers
                       "synth": 32}.get(kind, NUM_CLIENTS)
    synth = kind == "synth"
    cluster = Cluster.build(
        num_servers=num_servers,
        num_clients=num_clients,
        protocol=get_protocol(task.protocol),
        params=experiment_params(**(task.params or {})),
        procs_per_client=(task.procs_per_client
                          if task.procs_per_client is not None
                          else PROCS_PER_CLIENT),
        seed=task.seed,
        tracer=tracer,
        trace=kind == "fuzz",
        lazy_servers=synth,
        streaming_metrics=synth,
    )
    procs = cluster.all_processes()
    run = Run(cluster, {}, think_time=task.think_time)

    if kind in ("trace", "inject"):
        scale = task.scale if task.scale is not None else TRACE_SCALES[task.trace]
        run.streams = TraceWorkload(
            TRACE_SPECS[task.trace], scale=scale, seed=task.seed
        ).build(cluster, procs)
        if kind == "inject":
            run.streams = inject_probes(cluster, run.streams, task.p_inject,
                                        task.seed)
            run.settle = INJECT_SETTLE
    elif kind == "metarates":
        run.streams = MetaratesWorkload(
            update_fraction=task.update_fraction,
            ops_per_process=task.ops_per_process,
            preload_per_server=task.preload_per_server,
            seed=task.seed,
        ).build(cluster, procs)
    elif synth:
        run.streams = SynthWorkload(
            SYNTH_MIXES[task.mix],
            total_ops=task.total_ops,
            seed=task.seed,
            cross_frac=task.cross_frac,
            zipf_s=task.zipf_s,
            hot_dirs=task.hot_dirs,
        ).streams(cluster, procs)
    else:
        workdir = run.workdir = cluster.preload_dir(ROOT_HANDLE, "fuzzdir")
        run.canary = cluster.preload_file(workdir, "canary")
        per_proc = task.total_ops // len(procs)

        def creates(i: int, proc):
            # Handles come from the placement allocator as the feeder
            # pulls each op, so a fault's coordinates stay put.
            for k in range(per_proc):
                yield FileOperation(
                    OpType.CREATE, proc.new_op_id(), parent=workdir,
                    name=f"f{i}-{k}",
                    target=cluster.placement.allocate_handle(),
                )

        run.streams = {proc: creates(i, proc) for i, proc in enumerate(procs)}
    return run


def finish_summary(cluster: "Cluster", summary: ReplaySummary,
                   server_metrics: Optional[Dict[str, dict]] = None,
                   ) -> ReplaySummary:
    """Add the latency tail, the event count and the metrics snapshots
    (every server's, unless ``server_metrics`` is given) to ``summary``."""
    m = cluster.metrics
    summary.latency_p50 = m.latency_percentile(50)
    summary.latency_p99 = m.latency_percentile(99)
    summary.latency_p999 = m.latency_percentile(99.9)
    summary.events_processed = cluster.sim.events_processed
    summary.server_metrics = (
        cluster.metrics_snapshot() if server_metrics is None else server_metrics
    )
    return summary


def execute_task(task: ReplayTask) -> ReplaySummary:
    """Build, replay and summarize one task in this process.

    Runs inside a :func:`~repro.sim.kernel_sprint` (cyclic GC paused):
    the replay hot path is cycle-free, and collector pauses otherwise
    eat a measurable slice of every cell.

    A scale cell keeps its 256-server summary bounded: it ships only
    the merged ``cluster`` registry over *materialized* servers, and
    clocks setup (cluster build, namespace preload) apart from the
    replay.
    """
    from repro.obs.registry import merge_snapshots
    from repro.sim import kernel_sprint

    with kernel_sprint():
        setup_start = time.perf_counter()
        run = build_run(task)
        replay_start = time.perf_counter()
        summary = run.replay()
        replay_wall = time.perf_counter() - replay_start
        cluster = run.cluster
        if task.kind != "synth":
            return finish_summary(cluster, summary)
        materialized = cluster.materialized_servers()
        summary.setup_wall_seconds = replay_start - setup_start
        summary.replay_wall_seconds = replay_wall
        summary.servers_materialized = len(materialized)
        summary.num_servers = len(cluster.servers)
        return finish_summary(cluster, summary, {
            "cluster": merge_snapshots(s.metrics for s in materialized)
        })
