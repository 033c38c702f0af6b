"""Figure 8 — impact of the conflict ratio.

"we injected some lookup requests to add some immediate commitments for
cross-server operations in the home2 trace" — the injected lookups ride
the replayed workload itself: before an operation, a process may first
look up an object that some *pending* (executed-but-uncommitted)
operation touched, which is a guaranteed conflict and forces an
immediate commitment on the replay's critical path (the probes come
from :func:`repro.workloads.inject.inject_probes`).
Replay time and message cost of OFS-Cx rise with the achieved conflict
ratio; the paper observes OFS-Cx still beats OFS until the ratio
reaches ~20%.

The OFS baseline and every injection level are independent replays, so
the sweep fans across the parallel runner (``jobs``).
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.experiments.common import ExperimentResult, grid_summaries
from repro.runner import ReplayTask

#: Per-operation injection probabilities sweeping the conflict ratio
#: from the trace's native value toward the paper's ~20%+ regime.
DEFAULT_INJECT = (0.0, 0.02, 0.06, 0.12, 0.25, 0.45)


def run_fig8(trace: str = "home2", inject=DEFAULT_INJECT, seed: int = 0,
             jobs: int = 1):
    tasks = [ReplayTask(kind="trace", trace=trace, protocol="ofs", seed=seed)]
    tasks += [
        ReplayTask(kind="inject", trace=trace, protocol="cx",
                   p_inject=p_inject, seed=seed)
        for p_inject in inject
    ]
    summaries = grid_summaries(tasks, jobs=jobs)
    ofs, cells = summaries[0], summaries[1:]
    rows = []
    for p_inject, res in zip(inject, cells):
        rows.append(
            {
                "p_inject": p_inject,
                "conflict_ratio": res.conflict_ratio,
                "cx_time": res.replay_time,
                "cx_vs_ofs": res.replay_time / ofs.replay_time,
                "messages": res.messages,
                "message_ratio_vs_ofs": res.messages / ofs.messages,
            }
        )
    text = render_table(
        ["Injected/op", "Conflict ratio", "OFS-Cx replay (s)",
         "Replay vs OFS", "Msgs vs OFS"],
        [[f"{r['p_inject']:.2f}", f"{r['conflict_ratio']:.2%}",
          f"{r['cx_time']:.3f}", f"{r['cx_vs_ofs']:.2f}x",
          f"{r['message_ratio_vs_ofs']:.2f}x"] for r in rows],
        title=f"Figure 8 — impact of conflict ratio ({trace}; OFS replay "
              f"{ofs.replay_time:.3f}s)",
    )
    result = ExperimentResult("fig8", text, rows)
    result.ofs_time = ofs.replay_time
    return result
