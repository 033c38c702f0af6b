"""Unit tests for trace specs, generators, Metarates, and replay."""

import pytest

from repro.fs.ops import OpType, UPDATE_OPS
from repro.workloads import (
    TRACE_SPECS,
    MetaratesWorkload,
    TraceWorkload,
    build_probe_op,
    replay_streams,
)
from tests.conftest import build_cluster


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
    def _build(self, trace="CTH", scale=0.001, nproc=4, seed=0):
        cluster = build_cluster("cx", num_clients=2, procs_per_client=2)
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

    def test_replay_deadlock_detection(self):
        cluster, wl, streams = self._build(scale=0.0005)
        cluster.servers[0].crash()  # nobody recovers it
        with pytest.raises(RuntimeError):
            replay_streams(cluster, streams, max_virtual_time=5.0)

    def test_drained_queue_is_reported_as_deadlock(self):
        """The translation both replay drivers share."""
        from repro.sim import Simulator
        from repro.workloads.replay import deadlock_reported

        sim = Simulator()
        with pytest.raises(RuntimeError, match="probe replay deadlocked"):
            with deadlock_reported("probe replay"):
                sim.run_until(sim.event())  # never triggered

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
