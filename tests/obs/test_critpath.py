"""Critical-path analyzer: attribution semantics + reconciliation.

The acceptance criterion for the analyzer is *reconciliation*: because
attribution partitions the client-op window exactly, the per-phase sums
must equal the end-to-end latency to float precision — for synthetic
traces and for full ``python -m repro analyze`` replays of both the Cx
and OFS protocols.
"""

import pytest

from repro.obs.critpath import (
    PHASES,
    analyze_trace,
    attribute_op,
)
from repro.obs.tracer import TraceEvent
from repro.protocols import PROTOCOL_NAMES

OP = (0, 0, 1)


def span(name, ts, dur, node="mds0", **args):
    return TraceEvent(name=name, cat="op", ph="X", ts=ts, dur=dur,
                      node=node, op_id=OP, args=args)


def instant(name, ts, node="mds0", **args):
    return TraceEvent(name=name, cat="op", ph="i", ts=ts, dur=0.0,
                      node=node, op_id=OP, args=args)


class TestAttributeOp:
    def test_no_client_span_returns_none(self):
        assert attribute_op(OP, [span("exec", 0.0, 1.0)]) is None

    def test_pure_client_window(self):
        bd = attribute_op(OP, [span("client-op", 0.0, 2.0)])
        # No messages ever left: the whole window is client-side time.
        assert bd.phases["client"] == pytest.approx(2.0)
        assert bd.attributed == pytest.approx(bd.total)

    def test_phases_partition_window(self):
        events = [
            span("client-op", 0.0, 10.0),
            instant("msg", 1.0, delay=2.0),       # network [1, 3]
            span("exec", 3.0, 2.0),                # execution [3, 5]
            span("result-record", 5.0, 1.0),       # wal-append [5, 6]
            instant("msg", 6.0, delay=3.0),        # network [6, 9]
        ]
        bd = attribute_op(OP, events)
        assert bd.phases["client"] == pytest.approx(1.0)   # [0, 1]
        assert bd.phases["network"] == pytest.approx(5.0)  # [1,3]+[6,9]
        assert bd.phases["execution"] == pytest.approx(2.0)
        assert bd.phases["wal-append"] == pytest.approx(1.0)
        assert bd.phases["queue"] == pytest.approx(1.0)    # [9, 10]
        assert bd.attributed == pytest.approx(bd.total)

    def test_execution_outranks_overlapping_network(self):
        events = [
            span("client-op", 0.0, 4.0),
            instant("msg", 0.0, delay=4.0),
            span("exec", 1.0, 2.0),
        ]
        bd = attribute_op(OP, events)
        assert bd.phases["execution"] == pytest.approx(2.0)
        assert bd.phases["network"] == pytest.approx(2.0)
        assert bd.attributed == pytest.approx(bd.total)

    def test_commit_clipped_to_window_and_off_path(self):
        events = [
            span("client-op", 0.0, 4.0),
            instant("msg", 0.0, delay=1.0),
            # Commitment starts inside the window, runs past the reply.
            span("commitment", 3.0, 5.0),
        ]
        bd = attribute_op(OP, events)
        assert bd.phases["commit"] == pytest.approx(1.0)   # [3, 4]
        assert bd.off_path_commit == pytest.approx(4.0)    # [4, 8]
        assert bd.attributed == pytest.approx(bd.total)

    def test_conflict_waits_until_next_exec_on_node(self):
        events = [
            span("client-op", 0.0, 10.0),
            instant("msg", 0.0, delay=1.0),
            instant("conflict", 2.0, node="mds1"),
            span("exec", 6.0, 1.0, node="mds1"),
        ]
        bd = attribute_op(OP, events)
        assert bd.phases["lock-wait"] == pytest.approx(4.0)  # [2, 6]
        assert bd.phases["execution"] == pytest.approx(1.0)
        assert bd.attributed == pytest.approx(bd.total)


class TestAnalyzeTrace:
    def test_groups_by_op_and_counts_skipped(self):
        other = (0, 0, 2)
        events = [
            span("client-op", 0.0, 1.0),
            # Second op traced but its client-op span never closed.
            TraceEvent(name="exec", cat="op", ph="X", ts=0.0, dur=0.5,
                       node="mds0", op_id=other),
        ]
        report = analyze_trace(events, protocol="test")
        assert len(report.ops) == 1
        assert report.skipped == 1

    def test_report_dict_shape(self):
        report = analyze_trace([span("client-op", 0.0, 1.0)], protocol="t")
        d = report.to_dict()
        assert d["protocol"] == "t"
        assert set(d["phases"]) == set(PHASES)
        for stats in d["phases"].values():
            assert {"mean", "total", "p50", "p99", "p999", "share"} <= set(
                stats
            )

    def test_empty_trace(self):
        report = analyze_trace([], protocol="t")
        assert report.ops == []
        assert report.max_reconciliation_error() == 0.0
        assert report.to_json()  # renders without ops
        assert "ops=0" in report.text


@pytest.mark.parametrize("protocol", ["cx", "ofs"])
def test_replay_phase_sums_reconcile(protocol):
    """Acceptance: analyze fig5 per-phase sums == end-to-end latency."""
    from repro.experiments.tracing import run_analyze, traced_task

    result = run_analyze(traced_task("fig5", protocol=protocol, scale=0.002,
                                     seed=1))
    assert not result.replay.violations
    report = result.report
    assert len(report.ops) > 100
    # Every op's attribution partitions its window exactly.
    for op in report.ops:
        assert op.attributed == pytest.approx(op.total, abs=1e-12)
    assert report.max_reconciliation_error() < 1e-12
    # The protocols' signatures: Cx pushes commitment off the
    # client-visible path; OFS pays synchronous write-back inside it.
    stats = report.phase_stats()
    if protocol == "cx":
        assert report.off_path_commit_stats()["total"] > 0.0
        assert stats["write-back"]["total"] == 0.0
    else:
        assert stats["write-back"]["total"] > 0.0
        assert report.off_path_commit_stats()["total"] == 0.0


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_analyze_sees_every_op_of_every_protocol(protocol):
    """Every protocol opens a client-op span per op, so the analyzer
    attributes all of them and skips none."""
    from repro.experiments.tracing import run_traced_replay, traced_task

    replay = run_traced_replay(traced_task("fig5", protocol=protocol,
                                           scale=0.002))
    report = analyze_trace(replay.tracer, protocol=protocol)
    assert report.skipped == 0
    assert len(report.ops) == replay.summary.total_ops
    assert report.max_reconciliation_error() < 1e-12


@pytest.mark.parametrize("experiment,protocol", [
    ("fig5", "cx"), ("fig5", "ofs"), ("fig8", "cx"),
])
def test_traced_replay_runs_the_task_execute_task_runs(experiment, protocol):
    """A traced run is the same run as the runner's: tracing observes
    the schedule without moving it, and ``trace fig8`` replays Fig. 8's
    injection cell, not plain home2."""
    from repro.experiments.tracing import run_traced_replay, traced_task
    from repro.runner import execute_task

    task = traced_task(experiment, protocol=protocol, scale=0.002)
    traced = run_traced_replay(task).summary
    plain = execute_task(task)
    for key in ("replay_time", "total_ops", "messages", "conflicted_ops"):
        assert getattr(traced, key) == getattr(plain, key), key
    if experiment == "fig8":
        assert task.kind == "inject" and task.p_inject == 0.12
        assert plain.conflicted_ops > 0.05 * plain.total_ops
