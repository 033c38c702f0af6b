"""Isolated layer drivers (the I metrics).

Each driver calls one layer's public API with nothing above it and
reports a host-time rate (or a build time), so a change to that layer
shows here even when a replay's other layers drown it.  Work sizes are
fixed, not calibrated, so two commits do the same work; ``scale``
shrinks them for the smoke test.  Every driver runs :data:`REPEATS`
times and the median wall is used.  Default ``SimParams`` throughout.
(``faultfuzz`` alone is the ``crash-recovery`` host block at a small
size; ``run.py`` times it the same way.)

A driver returns ``(units_of_work, wall_seconds)``.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

from repro.cluster.builder import Cluster
from repro.fs.namespace import NamespaceShard
from repro.fs.ops import FileOperation, OpType, split_operation
from repro.fs.placement import PlacementPolicy
from repro.net.message import MessageKind
from repro.net.network import Network, Node
from repro.obs.registry import Histogram
from repro.params import SimParams
from repro.protocols import get_protocol
from repro.runner.bench import bench_event_loop
from repro.sim import Simulator, kernel_sprint
from repro.storage.disk import Disk
from repro.storage.kvstore import KVStore
from repro.storage.wal import LogRecord, WriteAheadLog
from repro.workloads import SYNTH_MIXES, TRACE_SPECS, SynthWorkload, TraceWorkload

REPEATS = 3

Sample = Tuple[float, float]


def _size(n: int, scale: float) -> int:
    return max(1, int(n * scale))


def sim_loop(scale: float) -> Sample:
    """Kernel timeout churn: the legacy ``repro bench`` event-loop cell,
    so ``BENCH_kernel.json``'s ``event_loop`` means the same thing."""
    cell = bench_event_loop(quick=True)
    return cell["events"], cell["wall_seconds"]


def net_send(scale: float) -> Sample:
    """Send + deliver among 16 registered nodes, each echoing onward."""
    sim = Simulator()
    net = Network(sim, SimParams())
    nodes = [Node(sim, net, f"n{i}") for i in range(16)]
    hops = _size(4000, scale)

    def relay(i: int):
        node = nodes[i]
        nxt = nodes[(i + 1) % len(nodes)].node_id
        node.send(nxt, MessageKind.REQ)
        for _ in range(hops - 1):
            yield node.inbox.get()
            node.send(nxt, MessageKind.REQ)
        yield node.inbox.get()

    procs = [sim.process(relay(i)) for i in range(len(nodes))]
    start = time.perf_counter()
    sim.run_until(sim.all_of(procs))
    return net.stats.total, time.perf_counter() - start


def wal_append(scale: float) -> Sample:
    """Group-committed appends from 32 writers, pruned as they land."""
    sim = Simulator()
    params = SimParams()
    wal = WriteAheadLog(sim, Disk(sim, params), params)
    per_writer = _size(1600, scale)

    def writer(w: int):
        for k in range(per_writer):
            op_id = (0, w, k)
            yield wal.append(LogRecord(op_id, "result", size=params.log_record_size))
            wal.prune_op(op_id)

    procs = [sim.process(writer(w)) for w in range(32)]
    start = time.perf_counter()
    sim.run_until(sim.all_of(procs))
    return wal.appends, time.perf_counter() - start


def kv_put(scale: float) -> Sample:
    """Deferred puts flushed in batches of 64, then a sync-put tail."""
    sim = Simulator()
    params = SimParams()
    kv = KVStore(sim, Disk(sim, params), params)
    batches = _size(1300, scale)

    def writer():
        for b in range(batches):
            for k in range(64):
                kv.put_deferred(("i", b * 64 + k), b)
            yield kv.flush()
            yield kv.put_sync(("s", b), b)

    proc = sim.process(writer())
    start = time.perf_counter()
    sim.run_until(proc)
    return kv.deferred_puts + kv.sync_puts, time.perf_counter() - start


def fs_execute(scale: float) -> Sample:
    """NamespaceShard.execute over create / stat / remove triples."""
    sim = Simulator()
    params = SimParams()
    shard = NamespaceShard(KVStore(sim, Disk(sim, params), params), 0)
    placement = PlacementPolicy(1)
    rounds = _size(5000, scale)
    executed = 0
    start = time.perf_counter()
    for k in range(rounds):
        handle = placement.allocate_handle()
        for op_type in (OpType.CREATE, OpType.STAT, OpType.REMOVE):
            op = FileOperation(op_type, (0, 0, k), parent=0, name=f"f{k}",
                               target=handle)
            sub = split_operation(op, placement).coord_subop
            result = shard.execute(sub, float(k))
            if not result.ok:
                raise RuntimeError(f"{op_type.value} failed: {result.errno}")
            shard.apply_deferred(result.updates)
            executed += 1
    return executed, time.perf_counter() - start


def hist_observe(scale: float) -> Sample:
    hist = Histogram()
    n = _size(250_000, scale)
    start = time.perf_counter()
    observe = hist.observe
    for k in range(n):
        observe(1e-4 + k * 1e-9)
    return hist.count, time.perf_counter() - start


def _lazy256(seed: int = 0) -> Cluster:
    return Cluster.build(
        num_servers=256, num_clients=32, protocol=get_protocol("cx"),
        procs_per_client=8, seed=seed, lazy_servers=True,
        streaming_metrics=True,
    )


def synth_gen(scale: float) -> Sample:
    """Drain the flood mix's lazy streams without replaying them."""
    cluster = _lazy256()
    wl = SynthWorkload(SYNTH_MIXES["flood"], total_ops=_size(50_000, scale))
    start = time.perf_counter()
    streams = wl.streams(cluster, cluster.all_processes())
    drained = 0
    for stream in streams.values():
        for _op in stream:
            drained += 1
    return drained, time.perf_counter() - start


def trace_build(scale: float) -> Sample:
    """TraceWorkload.build (CTH): preload + materialised stream plan."""
    cluster = Cluster.build(
        num_servers=8, num_clients=4, protocol=get_protocol("cx"),
        procs_per_client=8,
    )
    wl = TraceWorkload(TRACE_SPECS["CTH"], scale=max(1e-4, 0.08 * scale))
    processes = cluster.all_processes()
    start = time.perf_counter()
    streams = wl.build(cluster, processes)
    wall = time.perf_counter() - start
    return sum(len(ops) for ops in streams.values()), wall


def build_eager8(scale: float) -> Sample:
    builds = _size(800, scale)
    start = time.perf_counter()
    for _ in range(builds):
        Cluster.build(num_servers=8, num_clients=4,
                      protocol=get_protocol("cx"), procs_per_client=8)
    return builds, time.perf_counter() - start


def build_lazy256(scale: float) -> Sample:
    """Lazy build, then first touch of every server (what flood pays)."""
    builds = _size(32, scale)
    start = time.perf_counter()
    for _ in range(builds):
        cluster = _lazy256()
        for i in range(256):
            cluster.servers[i]
    return builds, time.perf_counter() - start


#: metric name -> (driver, unit, True when the metric is seconds per
#: unit of work instead of units per second).
DRIVERS: Dict[str, Tuple[Callable[[float], Sample], str, bool]] = {
    "sim.loop_events_per_s": (sim_loop, "events/s", False),
    "net.send_msgs_per_s": (net_send, "msgs/s", False),
    "cluster.build_eager8_s": (build_eager8, "s", True),
    "cluster.build_lazy256_s": (build_lazy256, "s", True),
    "storage.wal_append_per_s": (wal_append, "appends/s", False),
    "storage.kv_put_per_s": (kv_put, "puts/s", False),
    "fs.execute_per_s": (fs_execute, "subops/s", False),
    "obs.hist_observe_per_s": (hist_observe, "obs/s", False),
    "workloads.synth_gen_ops_per_s": (synth_gen, "ops/s", False),
    "workloads.trace_build_ops_per_s": (trace_build, "ops/s", False),
}


def _median_rate(driver: Callable[[float], Sample], scale: float,
                 per_unit: bool) -> float:
    samples = []
    for _ in range(REPEATS):
        with kernel_sprint():
            units, wall = driver(scale)
        samples.append(wall / units if per_unit else units / wall)
    return statistics.median(samples)


def run_all(scale: float = 1.0) -> Dict[str, Tuple[float, str]]:
    """Every driver's metric as ``name -> (value, unit)``."""
    return {
        name: (_median_rate(driver, scale, per_unit), unit)
        for name, (driver, unit, per_unit) in DRIVERS.items()
    }
