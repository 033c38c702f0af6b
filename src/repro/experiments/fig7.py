"""Figure 7 — sensitivity to the log size.

(a) throughput improvement of OFS-Cx over OFS as a function of the
    log-size upper limit: a small log fills up, blocks new sub-ops
    until urgent commitments prune it, and erodes the gain;
(b) the valid-record footprint over time with an unlimited log: it
    grows while executions outpace the timeout trigger, then drops at
    every trigger firing (a sawtooth with the trigger's period).

Time/size axes are at replay scale (see EXPERIMENTS.md).
"""

from __future__ import annotations

from repro.analysis.metrics import TimelineSampler
from repro.analysis.tables import render_table
from repro.experiments.common import (
    EXPERIMENT_TIMEOUT,
    ExperimentResult,
    TRACE_SCALES,
    grid_summaries,
)
from repro.runner import ReplayTask, build_run

DEFAULT_CAPS = (8 * 1024, 16 * 1024, 64 * 1024, 256 * 1024, None)


def run_fig7a(trace: str = "home2", caps=DEFAULT_CAPS, seed: int = 0,
              jobs: int = 1):
    tasks = [ReplayTask(kind="trace", trace=trace, protocol="ofs", seed=seed)]
    tasks += [
        ReplayTask(kind="trace", trace=trace, seed=seed,
                   params={"log_capacity": cap})
        for cap in caps
    ]
    ofs, *cells = grid_summaries(tasks, jobs=jobs)
    rows = [
        {
            "log_cap": cap if cap is not None else "unlimited",
            "cx_time": res.replay_time,
            "improvement_vs_ofs": 1 - res.replay_time / ofs.replay_time,
            # A meter never written is absent from the snapshot.
            "blocked_appends": res.server_metrics["cluster"].get(
                "wal.blocked_appends", 0),
        }
        for cap, res in zip(caps, cells)
    ]
    text = render_table(
        ["Log cap (B)", "OFS-Cx replay (s)", "Improvement vs OFS", "Blocked appends"],
        [[r["log_cap"], f"{r['cx_time']:.3f}", f"{r['improvement_vs_ofs']:.1%}",
          r["blocked_appends"]] for r in rows],
        title=f"Figure 7(a) — impact of the log-size upper limit ({trace})",
    )
    return ExperimentResult("fig7a", text, rows)


def run_fig7b(trace: str = "home2", seed: int = 0, sample_period=None,
              scale_multiplier: float = 4.0):
    """The replay is stretched to several trigger periods so the
    sawtooth shows multiple cycles, like the paper's 10 s-period plot."""
    run = build_run(ReplayTask(
        kind="trace", trace=trace, seed=seed,
        scale=TRACE_SCALES[trace] * scale_multiplier,
        params={"log_capacity": None},
    ))
    cluster = run.cluster
    sampler = TimelineSampler(
        cluster.sim,
        probe=lambda: sum(s.wal.valid_bytes for s in cluster.servers) / len(cluster.servers),
        period=sample_period or EXPERIMENT_TIMEOUT / 8,
    )
    res = run.replay()
    sampler.stop()
    xs, ys = sampler.series()
    rows = [
        {"t": float(t), "valid_bytes": float(v)}
        for t, v in zip(xs, ys)
        if t <= res.replay_time + EXPERIMENT_TIMEOUT / 2
    ]
    text = render_table(
        ["t (s)", "avg valid-record bytes/server"],
        [[f"{r['t']:.3f}", f"{r['valid_bytes']:.0f}"] for r in rows],
        title=f"Figure 7(b) — valid-record footprint over time ({trace}, "
              f"timeout trigger {EXPERIMENT_TIMEOUT}s)",
    )
    result = ExperimentResult("fig7b", text, rows)
    result.peak = sampler.peak
    return result


def run_fig7(trace: str = "home2", seed: int = 0, jobs: int = 1):
    a = run_fig7a(trace, seed=seed, jobs=jobs)
    b = run_fig7b(trace, seed=seed)
    return ExperimentResult("fig7", a.text + "\n\n" + b.text, a.rows + b.rows)
