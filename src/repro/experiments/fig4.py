"""Figure 4 — metadata operation distribution in the workloads."""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.experiments.common import ExperimentResult
from repro.fs.ops import OpType
from repro.runner import ReplayTask, build_run
from repro.workloads import TRACE_SPECS


def run_fig4(traces=None, seed: int = 0) -> ExperimentResult:
    traces = traces or list(TRACE_SPECS)
    op_types = [t for t in OpType]
    rows = []
    for trace in traces:
        run = build_run(ReplayTask(kind="trace", trace=trace, seed=seed))
        counts = {t: 0 for t in op_types}
        total = 0
        for ops in run.streams.values():
            for op in ops:
                counts[op.op_type] += 1
                total += 1
        row = {"trace": trace, "total": total}
        row.update({t.value: counts[t] / total for t in op_types})
        rows.append(row)
    headers = ["Trace", "Total"] + [t.value for t in op_types]
    body = [
        [r["trace"], r["total"]] + [f"{r[t.value]:.1%}" for t in op_types]
        for r in rows
    ]
    text = render_table(headers, body,
                        title="Figure 4 — metadata operations distribution")
    return ExperimentResult("fig4", text, rows)
