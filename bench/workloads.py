"""The benchmark's four workloads, built from ``repro``'s public API.

Every workload has a *model block* — the simulated scenario whose
virtual-time results are the paper's kind of claim — and a *host block*
— what is timed on this machine.  For the three replays they are the
same thing (one cx replay).  ``crash-recovery`` times fault schedules
(host block) and takes its model numbers from a fill / crash / recover
scenario.

All load is closed loop in virtual time: a simulated client process
issues its next operation when the previous one completes.  ``seed``
feeds the trace or synth generator, cluster placement, probe injection
and the choice of fault schedules; the program only ever sees the
generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.analysis.consistency import check_namespace_invariants
from repro.cluster import FailureInjector
from repro.cluster.builder import ROOT_HANDLE, Cluster
from repro.experiments.common import build_trace_cluster, experiment_params
from repro.faultfuzz import generate_schedule, run_schedule
from repro.faultfuzz.explorer import (
    NUM_CLIENTS,
    OPS_PER_PROC,
    PROCS_PER_CLIENT,
)
from repro.faultfuzz.explorer import NUM_SERVERS as FUZZ_SERVERS
from repro.fs.ops import FileOperation, OpType
from repro.protocols import get_protocol
from repro.workloads import (
    SYNTH_MIXES,
    TRACE_SPECS,
    SynthWorkload,
    TraceWorkload,
    replay_streams,
    replay_streams_with_injection,
)

REFERENCE = "ofs-batched"

#: Client operations one fuzz schedule replays.
FUZZ_OPS_PER_SCHEDULE = NUM_CLIENTS * PROCS_PER_CLIENT * OPS_PER_PROC

#: ``ok=False`` answers that are the file system working as specified.
NAMESPACE_ERRNOS = frozenset(
    {"ENOENT", "EEXIST", "ENOTEMPTY", "ENOTDIR", "EISDIR"}
)

#: Unit of every exact count ``_cluster_outcome`` reads (the C metrics).
C_UNITS = {
    "sim.events_per_op": "events",
    "net.msgs_per_op": "msgs",
    "net.bytes_per_op": "bytes",
    "cluster.servers_materialized": "count",
    "core.commit_batch_mean": "ops",
    "core.lazy_share": "ratio",
    "core.immediate_per_kop": "ops",
    "core.conflict_ratio": "ratio",
    "core.commit_latency_ms": "ms",
    "core.queue_depth_max": "ops",
    "core.recovery_share": "ratio",
    "storage.wal_appends_per_op": "count",
    "storage.wal_syncs_per_op": "count",
    "storage.wal_records_per_sync": "count",
    "storage.wal_valid_bytes_max": "bytes",
    "storage.disk_requests_per_op": "count",
    "storage.disk_busy_share": "ratio",
    "fs.cross_share": "ratio",
    "fs.errno_share": "ratio",
}

#: Fuzz seeds x schedule indices CI certifies clean (fuzz-smoke, strict).
#: Other fuzz seeds have open findings at this commit (see README), so
#: the benchmark samples its schedules from this range only.
CERTIFIED_FUZZ = [(s, i) for s in range(3) for i in range(100)]

#: Work sizes.  "full" keeps every timed block >= 4 s on the 2-core
#: reference host; "smoke" only proves the code path (bench/tests).
SIZES: Dict[str, Dict[str, float]] = {
    "full": {
        "cth_scale": 0.08, "home2_scale": 0.013, "flood_ops": 24_000,
        "fuzz_schedules": 90, "fill_per_proc": 640, "warm_scale": 0.004,
        "layers_scale": 1.0, "layers_fuzz_schedules": 6,
    },
    "smoke": {
        "cth_scale": 0.002, "home2_scale": 0.0004, "flood_ops": 1024,
        "fuzz_schedules": 2, "fill_per_proc": 12, "warm_scale": 0.0005,
        "layers_scale": 0.01, "layers_fuzz_schedules": 1,
    },
}


@dataclass
class Outcome:
    """What one block produced: exact, repeatable numbers only."""

    ops: int
    events: int
    failed: int = 0
    #: Virtual seconds the ops took (None for the fuzz host block).
    window_s: Optional[float] = None
    #: Client-visible latency of every op, virtual seconds.
    latencies: Optional[np.ndarray] = None
    #: Exact counts (the C metrics), keyed by per-layer metric name.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Broken correctness checks: any entry makes the run incorrect.
    violations: List[str] = field(default_factory=list)
    #: What failed, for the report (failures are counted in ``failed``).
    findings: List[str] = field(default_factory=list)

    def fingerprint(self) -> tuple:
        """Everything two runs of the same inputs must agree on."""
        lat = None if self.latencies is None else self.latencies.tobytes()
        return (self.ops, self.events, self.failed, self.window_s, lat,
                tuple(sorted(self.counts.items())))


def _timed_stream(sim, ops: Iterator[FileOperation],
                  out: List[float]) -> Iterator[FileOperation]:
    """Pass ``ops`` through, recording each op's latency into ``out``.

    The replay pulls the next op at the instant the previous one
    completed, so the virtual time between two pulls is exactly the
    earlier op's client-visible latency — measured without touching
    the program, and exact where the streaming collector only keeps
    log buckets.
    """
    last = None
    for op in ops:
        now = sim.now
        if last is not None:
            out.append(now - last)
        last = now
        yield op
    if last is not None:
        out.append(sim.now - last)


def _cluster_outcome(cluster, window_s: float,
                     stream_latencies: Optional[List[float]] = None,
                     extra: Optional[Dict[str, float]] = None) -> Outcome:
    """Read ops, failures, latencies and every C count off ``cluster``."""
    m = cluster.metrics
    ops = m.total_ops
    records = getattr(m, "ops", None)
    if records is not None:
        latencies = np.fromiter((r.end - r.start for r in records), float, ops)
        errno_ops = sum(1 for r in records
                        if not r.ok and r.errno in NAMESPACE_ERRNOS)
        failed = sum(1 for r in records if not r.ok) - errno_ops
    else:
        # Streaming collector: no per-op errno, so any not-ok op counts.
        latencies = np.asarray(stream_latencies, float)
        errno_ops = 0
        failed = ops - m.completed_ok
    servers = cluster.materialized_servers()
    violations = [str(v) for v in check_namespace_invariants(cluster)]
    if len(latencies) != ops:
        violations.append(f"{len(latencies)} latencies for {ops} ops")
    elif ops and abs(latencies.mean() - m.mean_latency()) > 1e-12:
        violations.append("bench latencies disagree with the collector's mean")

    snap = cluster.metrics_snapshot(materialized_only=True)["cluster"]
    net = cluster.network.stats
    per_op = 1.0 / ops

    def hist(name: str, key: str) -> float:
        return float(snap.get(name, {}).get(key, 0.0))

    lazy = snap.get("commit.lazy_ops", 0)
    immediate = snap.get("commit.immediate_ops", 0)
    appends = snap.get("wal.appends", 0)
    syncs = snap.get("wal.syncs", 0)
    disk_requests = sum(s.disk.stats.requests for s in servers)
    disk_busy = sum(s.disk.stats.busy_time for s in servers)
    counts = {
        "sim.events_per_op": cluster.sim.events_processed * per_op,
        "net.msgs_per_op": net.total * per_op,
        "net.bytes_per_op": net.total_bytes * per_op,
        "cluster.servers_materialized": float(len(servers)),
        "core.commit_batch_mean": hist("commit.batch_size", "mean"),
        "core.lazy_share": lazy / (lazy + immediate) if lazy + immediate else 0.0,
        "core.immediate_per_kop": 1e3 * immediate * per_op,
        "core.conflict_ratio": m.conflict_ratio,
        "core.commit_latency_ms": 1e3 * hist("commit.latency", "mean"),
        "core.queue_depth_max": hist("commit.queue_depth", "max"),
        "core.recovery_share": 0.0,
        "storage.wal_appends_per_op": appends * per_op,
        "storage.wal_syncs_per_op": syncs * per_op,
        "storage.wal_records_per_sync": appends / syncs if syncs else 0.0,
        "storage.wal_valid_bytes_max": hist("wal.valid_bytes", "max"),
        "storage.disk_requests_per_op": disk_requests * per_op,
        "storage.disk_busy_share": disk_busy / (len(servers) * window_s),
        "fs.cross_share": m.cross_server_ops * per_op,
        "fs.errno_share": errno_ops * per_op,
    }
    counts.update(extra or {})
    return Outcome(
        ops=ops, events=cluster.sim.events_processed, failed=failed,
        window_s=window_s, latencies=latencies, counts=counts,
        violations=violations,
    )


class _Replay:
    """Shared shape of the three replays: host block == model block.

    ``setup`` builds a fresh cluster and its streams, ``run`` is the
    program's work and the only part that is timed, ``outcome`` reads
    the results off the cluster afterwards.
    """

    #: True when the host block is not the model block.
    separate_model_block = False

    def host_setup(self, seed: int):
        return self.setup(seed)

    def host_run(self, state, seed: int):
        return self.run(state, seed)

    def host_outcome(self, state, raw) -> Outcome:
        return self.outcome(state, raw)

    def outcome(self, state, window_s: float) -> Outcome:
        return _cluster_outcome(state[0], window_s, *state[2:])


class _TraceReplay(_Replay):
    """A trace replayed on the canonical 8-server, 4x8-process cluster
    (``commit_timeout=0.25``, the configuration of every prior PR)."""

    trace = ""
    scale_key = ""

    def __init__(self, sizes: Dict[str, float]) -> None:
        self.scale = sizes[self.scale_key]
        self.warm_scale = sizes["warm_scale"]

    def setup(self, seed: int, protocol: str = "cx", tracer=None,
              scale: Optional[float] = None):
        cluster = build_trace_cluster(
            protocol, seed=seed, trace=tracer is not None, tracer=tracer
        )
        workload = TraceWorkload(
            TRACE_SPECS[self.trace], scale=scale or self.scale, seed=seed
        )
        return cluster, workload.build(cluster, cluster.all_processes())

    def warm_up(self, seed: int) -> None:
        self.run(self.setup(seed, scale=self.warm_scale), seed)


class CthCheckpoint(_TraceReplay):
    name = "cth-checkpoint"
    why = ("create-heavy checkpoint trace, 35% cross-server, 0.15% conflicts: "
           "lazy batched commitment and the WAL do most of the protocol work")
    trace = "CTH"
    scale_key = "cth_scale"

    def run(self, state, seed: int) -> float:
        cluster, streams = state
        return replay_streams(cluster, streams).replay_time


class Home2Conflict(_TraceReplay):
    name = "home2-conflict"
    why = ("read-heavy NFS trace with injected probes forcing ~9% conflicts: "
           "immediate commitment, active-object table and hints on the "
           "critical path")
    trace = "home2"
    scale_key = "home2_scale"
    p_inject = 0.1

    def run(self, state, seed: int) -> float:
        cluster, streams = state
        return replay_streams_with_injection(
            cluster, streams, p_inject=self.p_inject, seed=seed
        )["replay_time"]


class Flood256(_Replay):
    name = "flood-256"
    why = ("small-file flood on 256 lazily built servers, streams generated "
           "inside the replay: network fabric, dispatch and the kernel dominate")

    def __init__(self, sizes: Dict[str, float]) -> None:
        self.total_ops = int(sizes["flood_ops"])
        self.warm_ops = max(256, self.total_ops // 20)

    def setup(self, seed: int, protocol: str = "cx", tracer=None,
              total_ops: Optional[int] = None):
        cluster = Cluster.build(
            num_servers=256, num_clients=32, protocol=get_protocol(protocol),
            params=experiment_params(), procs_per_client=8, seed=seed,
            tracer=tracer, lazy_servers=True, streaming_metrics=True,
        )
        workload = SynthWorkload(
            SYNTH_MIXES["flood"], total_ops=total_ops or self.total_ops,
            seed=seed,
        )
        latencies: List[float] = []
        streams = {
            proc: _timed_stream(cluster.sim, ops, latencies)
            for proc, ops in
            workload.streams(cluster, cluster.all_processes()).items()
        }
        return cluster, streams, latencies

    def run(self, state, seed: int) -> float:
        cluster, streams, _latencies = state
        return replay_streams(cluster, streams, collect=False).replay_time

    def warm_up(self, seed: int) -> None:
        self.run(self.setup(seed, total_ops=self.warm_ops), seed)


class CrashRecovery(_Replay):
    """Fault schedules (host block) + a Table V recovery (model block).

    The model block fills an 8-server cx cluster with creates while lazy
    commitment is off, so server 0's log holds ~1000 KB of valid
    records (the paper's largest Table V row), then kills and recovers
    it.  Its window spans fill *and* outage, so ``model_ops_per_s``
    falls when recovery gets slower.  The reference replays the same
    creates fault-free under its usual parameters.
    """

    name = "crash-recovery"
    why = ("fault schedules plus a 1000 KB log recovery: the only workload "
           "that runs recovery, RESOLICIT/park/retry, the detector and the "
           "fault injector")
    separate_model_block = True

    def __init__(self, sizes: Dict[str, float]) -> None:
        self.schedules = int(sizes["fuzz_schedules"])
        self.fill_per_proc = int(sizes["fill_per_proc"])

    # -- model block -----------------------------------------------------

    def setup(self, seed: int, protocol: str = "cx", tracer=None):
        params = (
            experiment_params(commit_timeout=None, commit_threshold=None,
                              log_capacity=None)
            if protocol == "cx" else experiment_params()
        )
        cluster = Cluster.build(
            num_servers=8, num_clients=4, protocol=get_protocol(protocol),
            params=params, procs_per_client=8, seed=seed, tracer=tracer,
        )
        workdir = cluster.preload_dir(ROOT_HANDLE, "recdir")
        streams = {
            proc: [
                FileOperation(
                    OpType.CREATE, proc.new_op_id(), parent=workdir,
                    name=f"p{i}-{k}",
                    target=cluster.placement.allocate_handle(),
                )
                for k in range(self.fill_per_proc)
            ]
            for i, proc in enumerate(cluster.all_processes())
        }
        return cluster, streams

    def run(self, state, seed: int):
        """Returns ``(window_s, recovery_report)``; no report for the
        reference, which replays the creates fault-free."""
        cluster, streams = state
        if cluster.protocol.name != "cx":
            return replay_streams(cluster, streams).replay_time, None
        sim = cluster.sim
        cluster.network.stats.reset()
        start = sim.now
        runners = [cluster.run_ops(proc, ops) for proc, ops in streams.items()]
        sim.run_until(sim.all_of(runners))
        injector = FailureInjector(cluster)
        injector.crash_server(0)
        report = sim.run_until(injector.recover_server(0))
        window = sim.now - start
        cluster.quiesce_protocol()
        return window, report

    def outcome(self, state, raw) -> Outcome:
        window, report = raw
        extra = None if report is None else {
            "core.recovery_share": report.duration / window,
            "storage.wal_valid_bytes_max": float(report.valid_bytes_at_crash),
        }
        return _cluster_outcome(state[0], window, None, extra)

    # -- host block ------------------------------------------------------

    def host_setup(self, seed: int):
        picks = random.Random(f"bench-fuzz:{seed}").sample(
            CERTIFIED_FUZZ, self.schedules
        )
        return [(fseed, index, generate_schedule(fseed, index, FUZZ_SERVERS))
                for fseed, index in picks]

    def host_run(self, state, seed: int):
        return [run_schedule(faults, seed=fseed, index=index)
                for fseed, index, faults in state]

    def host_outcome(self, state, results) -> Outcome:
        bad = [r for r in results if r.failed]
        return Outcome(
            ops=FUZZ_OPS_PER_SCHEDULE * len(results),
            events=sum(r.events for r in results),
            failed=FUZZ_OPS_PER_SCHEDULE * len(bad),
            counts={
                "faults_applied": float(sum(len(r.applied) for r in results)),
                "vtime": sum(r.vtime for r in results),
            },
            findings=[
                f"fuzz seed {r.seed} schedule {r.index}: {r.verdict} "
                f"{(r.violations or [r.error])[0]}"
                for r in bad
            ],
        )

    def warm_up(self, seed: int) -> None:
        self.host_run(self.host_setup(seed)[:2], seed)


WORKLOADS = {
    cls.name: cls
    for cls in (CthCheckpoint, Flood256, Home2Conflict, CrashRecovery)
}
