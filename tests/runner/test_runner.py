"""The parallel experiment runner: determinism, ordering, failure capture.

The replay cells here are tiny (sub-second) so the suite stays fast;
the full-scale grids are the experiments themselves (``--jobs N``).
"""

import pytest

from repro.runner import (
    ReplayTask,
    TaskFailed,
    execute_task,
    resolve_jobs,
    run_tasks,
)

#: A sub-second trace replay cell (a few hundred CTH operations).
TINY = dict(kind="trace", trace="CTH", seed=1, scale=0.0005)


def tiny(**overrides):
    return ReplayTask(**{**TINY, **overrides})


class TestReplayTask:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ReplayTask(kind="nope")

    def test_trace_kind_needs_trace(self):
        with pytest.raises(ValueError):
            ReplayTask(kind="trace")
        with pytest.raises(ValueError):
            ReplayTask(kind="inject")

    @pytest.mark.parametrize("spec,match", [
        (dict(kind="trace", trace="no-such-trace"), "trace"),
        (dict(kind="inject", trace="no-such-trace"), "trace"),
        (dict(kind="trace", trace="CTH", protocol="nonsense"), "protocol"),
        (dict(kind="fuzz", protocol="nonsense"), "protocol"),
        (dict(kind="synth"), "mix"),
        (dict(kind="synth", mix="no-such-mix"), "mix"),
        (dict(kind="trace", trace="CTH", scale=0.0), "scale"),
        (dict(kind="trace", trace="CTH", scale=-0.5), "scale"),
        (dict(kind="trace", trace="CTH", scale=1.5), "scale"),
        (dict(kind="trace", trace="CTH", params={"no_such_param": 1}),
         "no_such_param"),
    ])
    def test_invalid_spec_rejected_on_construction(self, spec, match):
        """Every driver builds through ReplayTask, so one check covers
        the runner, the traced replay and the fuzzer."""
        with pytest.raises(ValueError, match=match):
            ReplayTask(**spec)

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1


class TestDeterminism:
    def test_same_seed_identical_results_and_events(self):
        # Two replays: identical ReplaySummary including
        # events_processed and every metric.
        a = execute_task(tiny(protocol="cx"))
        b = execute_task(tiny(protocol="cx"))
        assert a.events_processed == b.events_processed
        assert a == b


class TestRunTasks:
    def test_serial_outcomes_in_task_order(self):
        tasks = [tiny(protocol=p) for p in ("ofs", "ofs-batched", "cx")]
        result = run_tasks(tasks, jobs=1)
        assert [o.index for o in result.outcomes] == [0, 1, 2]
        assert [o.summary.protocol for o in result.outcomes] == \
            ["ofs", "ofs-batched", "cx"]
        assert all(o.ok for o in result.outcomes)
        assert result.jobs == 1

    def test_parallel_matches_serial(self):
        tasks = [tiny(protocol=p, seed=s)
                 for p in ("ofs", "cx") for s in (1, 2)]
        serial = run_tasks(tasks, jobs=1)
        parallel = run_tasks(tasks, jobs=2)
        if parallel.fell_back_serial:
            pytest.skip("no multiprocessing on this platform")
        assert serial.summaries == parallel.summaries

    def test_worker_exception_captured(self):
        # A valid spec whose SimParams value fails only in the worker
        # (the commit triggers reject a threshold below 1).
        tasks = [tiny(protocol="cx"), tiny(params={"commit_threshold": 0})]
        result = run_tasks(tasks, jobs=1, raise_on_error=False)
        assert result.outcomes[0].ok
        assert not result.outcomes[1].ok
        assert "ValueError" in result.outcomes[1].error
        assert result.outcomes[1].summary is None

    def test_failures_raise_with_traceback(self):
        with pytest.raises(TaskFailed) as exc_info:
            run_tasks([tiny(params={"commit_threshold": 0})], jobs=1)
        assert "ValueError" in str(exc_info.value)

    def test_merged_cluster_metrics(self):
        result = run_tasks([tiny(protocol="cx")], jobs=1)
        merged = result.merged_cluster_metrics()
        per_cell = result.outcomes[0].summary.server_metrics
        assert set(merged) == set(per_cell["cluster"])
        total = sum(
            snap["net.sent"] for node, snap in per_cell.items()
            if node != "cluster"
        )
        assert merged["net.sent"] == total

    def test_metarates_task(self):
        task = ReplayTask(kind="metarates", protocol="cx", num_servers=2,
                          seed=1, ops_per_process=3, preload_per_server=20)
        summary = execute_task(task)
        assert summary.total_ops == 2 * 4 * 8 * 3  # servers*4 clients*8 procs
        assert summary.throughput > 0

    def test_inject_task_raises_conflicts(self):
        base = execute_task(tiny(protocol="cx"))
        probed = execute_task(tiny(kind="inject", protocol="cx", p_inject=0.5))
        assert probed.conflict_ratio > base.conflict_ratio


class TestBench:
    def test_event_loop_bench_counts_events(self):
        from repro.runner.bench import bench_event_loop

        r = bench_event_loop(quick=True)
        assert r["events"] > 0
        assert r["events_per_sec"] > 0
