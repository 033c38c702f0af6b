"""Unit tests for trace specs, generators, Metarates, and replay."""

import gc
import signal
from contextlib import contextmanager

import pytest

from repro.cluster.builder import STALL_WINDOW, Stalled
from repro.fs.ops import OpType, UPDATE_OPS
from repro.sim import kernel_sprint
from repro.workloads import (
    TRACE_SPECS,
    MetaratesWorkload,
    TraceWorkload,
    build_probe_op,
    replay_streams,
)
from tests.conftest import build_cluster


def _crash_clients(cluster, at):
    """Crash every client machine at virtual time ``at``."""
    yield cluster.sim.timeout(at)
    for client in cluster.clients:
        client.crash()


@contextmanager
def _wall_limit(seconds: int):
    """Fail, instead of hanging the suite, if the block outruns ``seconds``."""
    def expired(signum, frame):
        raise AssertionError(f"still running after {seconds} s of wall time")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSpecs:
    def test_all_six_traces_present(self):
        assert set(TRACE_SPECS) == {"CTH", "s3d", "alegra", "home2", "deasna2", "lair62b"}

    def test_paper_totals(self):
        """Table II's total operation counts."""
        expected = {
            "CTH": 505_247,
            "s3d": 724_818,
            "alegra": 404_812,
            "home2": 2_720_599,
            "deasna2": 3_888_022,
            "lair62b": 11_057_516,
        }
        for name, total in expected.items():
            assert TRACE_SPECS[name].total_ops == total

    def test_paper_conflict_ratios(self):
        """Table II's conflict ratios."""
        expected = {
            "CTH": 0.00112,
            "s3d": 0.00322,
            "alegra": 0.00623,
            "home2": 0.00669,
            "deasna2": 0.02972,
            "lair62b": 0.01571,
        }
        for name, ratio in expected.items():
            assert TRACE_SPECS[name].conflict_ratio == pytest.approx(ratio)

    def test_mixes_sum_to_one(self):
        for spec in TRACE_SPECS.values():
            assert sum(spec.op_mix.values()) == pytest.approx(1.0)

    def test_families(self):
        for name in ("CTH", "s3d", "alegra"):
            assert TRACE_SPECS[name].family == "hpc"
        for name in ("home2", "deasna2", "lair62b"):
            assert TRACE_SPECS[name].family == "nfs"


class TestTraceWorkload:
    def _build(self, trace="CTH", scale=0.001, nproc=4, seed=0,
               protocol="cx"):
        cluster = build_cluster(protocol, num_clients=2, procs_per_client=2)
        wl = TraceWorkload(TRACE_SPECS[trace], scale=scale, seed=seed)
        procs = cluster.all_processes()[:nproc]
        streams = wl.build(cluster, procs)
        return cluster, wl, streams

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            TraceWorkload(TRACE_SPECS["CTH"], scale=0)
        with pytest.raises(ValueError):
            TraceWorkload(TRACE_SPECS["CTH"], scale=1.5)

    def test_stream_sizes_match_scale(self):
        cluster, wl, streams = self._build(scale=0.001, nproc=4)
        per_proc = max(1, int(TRACE_SPECS["CTH"].total_ops * 0.001) // 4)
        assert all(len(ops) == per_proc for ops in streams.values())

    def test_op_mix_approximates_spec(self):
        cluster, wl, streams = self._build(trace="home2", scale=0.0005)
        all_ops = [op for ops in streams.values() for op in ops]
        stat_frac = sum(op.op_type is OpType.STAT for op in all_ops) / len(all_ops)
        assert stat_frac == pytest.approx(TRACE_SPECS["home2"].op_mix[OpType.STAT], abs=0.06)

    def test_deterministic_for_seed(self):
        _c1, _w1, s1 = self._build(seed=9)
        _c2, _w2, s2 = self._build(seed=9)
        ops1 = [(o.op_type, o.name, o.target) for ops in s1.values() for o in ops]
        ops2 = [(o.op_type, o.name, o.target) for ops in s2.values() for o in ops]
        assert ops1 == ops2

    def test_hpc_processes_share_common_dir(self):
        cluster, wl, streams = self._build(trace="CTH")
        creates = [op for ops in streams.values() for op in ops
                   if op.op_type is OpType.CREATE]
        if creates:
            parents = {op.parent for op in creates}
            # common checkpoint dir + possibly the shared pool dir
            assert len(parents) <= 2

    def test_nfs_processes_have_own_homes(self):
        cluster, wl, streams = self._build(trace="home2", scale=0.0005)
        home_parents = set()
        for ops in streams.values():
            creates = [op for op in ops if op.op_type is OpType.CREATE]
            if creates:
                home_parents.add(creates[0].parent)
        assert len(home_parents) > 1

    def test_replay_runs_clean(self):
        from repro.analysis.consistency import check_namespace_invariants

        cluster, wl, streams = self._build(scale=0.0005)
        res = replay_streams(cluster, streams)
        assert res.total_ops == sum(len(v) for v in streams.values())
        assert res.failed_ops == 0
        assert check_namespace_invariants(cluster, known_dirs=wl.known_dirs) == []

    def test_replay_keeps_no_op_results(self):
        """The closed-loop drive folds each result into the metrics and
        drops it: as a stream ends its feeder holds only the result it
        just got, and none is alive once the replay returns."""
        from repro.cluster.client import OpResult

        def alive():
            return sum(isinstance(o, OpResult) for o in gc.get_objects())

        def counted(ops):
            yield from ops
            at_end.append(alive())

        cluster, wl, streams = self._build(scale=0.0005)
        at_end = []
        with kernel_sprint():  # only what dies by refcount may go
            res = replay_streams(
                cluster, {p: counted(ops) for p, ops in streams.items()}
            )
            assert alive() == 0
        assert res.total_ops > 10 * len(streams)
        assert len(at_end) == len(streams) and max(at_end) <= len(streams)

    @pytest.mark.parametrize("protocol", ["cx", "ofs"])
    def test_wedged_replay_is_reported(self, protocol):
        """A replay that stops completing ops raises within one stall
        window of its last completion instead of spinning.

        cx: a server crashed and never recovered; its clients retry and
        its peers' commit triggers fire for ever.  ofs: a server that
        executes but never answers; the clients' retries are answered
        into the void just as well.
        """
        cluster, wl, streams = self._build(protocol=protocol, scale=0.0005)
        if protocol == "cx":
            cluster.servers[0].crash()  # nobody recovers it
        else:
            cluster.network.fault_hook = (
                lambda msg: ("drop",) if msg.src == "mds0" else None
            )
        with _wall_limit(30), pytest.raises(Stalled) as err:
            replay_streams(cluster, streams)
        last = cluster.last_completion
        assert 0 < last <= cluster.sim.now <= last + STALL_WINDOW
        assert f"t={last:.6f}" in str(err.value)

    def test_drained_queue_is_reported_as_deadlock(self):
        """Every reply is lost and the clients crash before their first
        retry, which takes their deadlines with them.  Their processes
        wait for ever and ofs servers run no timer, so the queue drains,
        and the drive reports that as a stall."""
        cluster, wl, streams = self._build(protocol="ofs", scale=0.0005)
        cluster.network.fault_hook = (
            lambda msg: ("drop",) if msg.src.startswith("mds") else None
        )
        cluster.sim.process(_crash_clients(cluster, at=0.5))
        with pytest.raises(Stalled, match="event queue drained"):
            replay_streams(cluster, streams)

    def test_failure_that_mentions_a_drained_queue_is_not_a_deadlock(self):
        """Only the kernel's QueueDrained means deadlock, not any error
        whose text happens to say so."""
        from repro.sim import SimulationError

        cluster, wl, streams = self._build(scale=0.0005)

        def bomb():
            yield cluster.sim.timeout(1e-6)
            raise ValueError("queue drained")  # nobody waits on this process

        cluster.sim.process(bomb())
        with pytest.raises(SimulationError, match="unhandled failure"):
            replay_streams(cluster, streams)


class TestMetarates:
    def test_update_fraction_validation(self):
        with pytest.raises(ValueError):
            MetaratesWorkload(update_fraction=1.5)

    def test_mix_constructors(self):
        assert MetaratesWorkload.update_dominated().update_fraction == 0.8
        assert MetaratesWorkload.read_dominated().update_fraction == 0.2

    def test_streams_use_common_directory(self):
        cluster = build_cluster("cx", num_clients=2, procs_per_client=2)
        wl = MetaratesWorkload(update_fraction=0.8, ops_per_process=20,
                               preload_per_server=10)
        streams = wl.build(cluster, cluster.all_processes())
        for ops in streams.values():
            for op in ops:
                if op.op_type in (OpType.CREATE, OpType.REMOVE):
                    assert op.parent == wl.common_dir

    def test_update_fraction_respected(self):
        cluster = build_cluster("cx", num_clients=2, procs_per_client=2)
        wl = MetaratesWorkload(update_fraction=0.8, ops_per_process=200,
                               preload_per_server=10)
        streams = wl.build(cluster, cluster.all_processes())
        all_ops = [op for ops in streams.values() for op in ops]
        updates = sum(op.op_type in UPDATE_OPS for op in all_ops)
        assert updates / len(all_ops) == pytest.approx(0.8, abs=0.05)

    def test_preload_spreads_over_servers(self):
        cluster = build_cluster("cx", num_servers=4)
        wl = MetaratesWorkload(update_fraction=0.5, ops_per_process=5,
                               preload_per_server=20)
        wl.build(cluster, cluster.all_processes())
        for server in cluster.servers:
            inodes = [k for k, _v in server.kv.items() if k[0] == "i"]
            assert len(inodes) >= 20

    def test_replay_runs_clean(self):
        cluster = build_cluster("cx", num_clients=2, procs_per_client=2)
        wl = MetaratesWorkload(update_fraction=0.5, ops_per_process=30,
                               preload_per_server=20)
        streams = wl.build(cluster, cluster.all_processes())
        res = replay_streams(cluster, streams)
        assert res.failed_ops == 0
        assert res.throughput > 0


class TestReplayEngine:
    def test_think_time_slows_replay(self):
        def run(think):
            cluster = build_cluster("cx", num_clients=1, procs_per_client=1)
            wl = MetaratesWorkload(update_fraction=0.5, ops_per_process=20,
                                   preload_per_server=5)
            streams = wl.build(cluster, cluster.all_processes())
            return replay_streams(cluster, streams, think_time=think).replay_time

        assert run(1e-3) > run(0.0) + 15e-3

    def test_result_fields_consistent(self):
        cluster = build_cluster("cx", num_clients=1, procs_per_client=2)
        wl = MetaratesWorkload(update_fraction=0.5, ops_per_process=25,
                               preload_per_server=5)
        streams = wl.build(cluster, cluster.all_processes())
        res = replay_streams(cluster, streams)
        assert res.total_ops == 50
        assert res.protocol == "cx"
        assert res.throughput == pytest.approx(res.total_ops / res.replay_time)
        assert 0 <= res.conflict_ratio <= 1


class TestProbeOp:
    @pytest.mark.parametrize("protocol", ["cx", "ofs"])
    def test_nothing_pending_means_no_probe(self, protocol):
        """No active object to aim at — an idle Cx cluster, or a baseline
        with no active-object table — yields no probe."""
        cluster = build_cluster(protocol)
        proc = cluster.client_process(0, 0)
        rng = cluster.rngs.stream("probe")
        assert build_probe_op(cluster, proc, rng) is None
