"""Figure 9 — sensitivity to the batched-commitment strategies.

Timeout and threshold trigger sweeps on home2 with an *unlimited* log
("To accurately investigate the impact of these strategies themselves,
we unlimited the upper-limit of log size").  Replay time decreases as
the trigger value grows (bigger batches merge better); with a timeout
so large no lazy commitment fires during the replay, OFS-Cx reaches its
optimum (the paper's 256 s point, scaled here).
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.experiments.common import ExperimentResult, grid_summaries
from repro.runner import ReplayTask

#: Scaled analogue of the paper's 1..256 s timeout sweep.
DEFAULT_TIMEOUTS = (0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 8.0)
DEFAULT_THRESHOLDS = (4, 16, 64, 256, 1024)


def _sweep(trace, seed, jobs, overrides):
    """Cx replay times on ``trace`` with an unlimited log, one per
    ``SimParams`` override dict."""
    tasks = [
        ReplayTask(kind="trace", trace=trace, seed=seed,
                   params={"log_capacity": None, **o})
        for o in overrides
    ]
    return [s.replay_time for s in grid_summaries(tasks, jobs=jobs)]


def run_fig9a(trace: str = "home2", timeouts=DEFAULT_TIMEOUTS, seed: int = 0,
              jobs: int = 1):
    times = _sweep(trace, seed, jobs,
                   [{"commit_timeout": tmo} for tmo in timeouts])
    rows = [{"timeout": tmo, "replay_time": t}
            for tmo, t in zip(timeouts, times)]
    text = render_table(
        ["Timeout (s)", "OFS-Cx replay (s)"],
        [[r["timeout"], f"{r['replay_time']:.3f}"] for r in rows],
        title=f"Figure 9(a) — timeout-trigger sensitivity ({trace}, unlimited log)",
    )
    return ExperimentResult("fig9a", text, rows)


def run_fig9b(trace: str = "home2", thresholds=DEFAULT_THRESHOLDS,
              seed: int = 0, jobs: int = 1):
    times = _sweep(trace, seed, jobs, [
        {"commit_timeout": None, "commit_threshold": threshold}
        for threshold in thresholds
    ])
    rows = [{"threshold": threshold, "replay_time": t}
            for threshold, t in zip(thresholds, times)]
    text = render_table(
        ["Threshold (ops)", "OFS-Cx replay (s)"],
        [[r["threshold"], f"{r['replay_time']:.3f}"] for r in rows],
        title=f"Figure 9(b) — threshold-trigger sensitivity ({trace}, unlimited log)",
    )
    return ExperimentResult("fig9b", text, rows)


def run_fig9(trace: str = "home2", seed: int = 0, jobs: int = 1):
    a = run_fig9a(trace, seed=seed, jobs=jobs)
    b = run_fig9b(trace, seed=seed, jobs=jobs)
    return ExperimentResult("fig9", a.text + "\n\n" + b.text, a.rows + b.rows)
