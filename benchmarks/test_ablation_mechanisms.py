"""Ablation: decompose Cx's gain into its two mechanisms.

DESIGN.md calls out two independent design choices in Cx:

1. concurrent execution of the sub-operations (vs SE's serial order);
2. lazy batched commitment (vs committing each op immediately).

Four systems isolate them on the s3d trace (the paper's most
cross-server-heavy workload):

=====================  ===========  ============
system                 execution    commitment
=====================  ===========  ============
ofs                    serial       sync per op
cx-serial-exec         serial       lazy batched
cx (threshold=1)       concurrent   immediate
cx                     concurrent   lazy batched
=====================  ===========  ============
"""

from repro.analysis.tables import render_table
from repro.runner import ReplayTask, execute_task

TRACE = "s3d"


def _run(protocol, seed, params=None):
    return execute_task(ReplayTask(kind="trace", trace=TRACE, protocol=protocol,
                                   seed=seed, params=params))


def _run_all(seed=0):
    rows = {}
    rows["ofs"] = _run("ofs", seed)
    rows["cx-serial-exec"] = _run("cx-serial-exec", seed)
    rows["cx-immediate"] = _run(
        "cx", seed, params={"commit_timeout": None, "commit_threshold": 1}
    )
    rows["cx"] = _run("cx", seed)
    return rows


def test_ablation_mechanism_decomposition(benchmark, once):
    rows = once(benchmark, _run_all)
    base = rows["ofs"].replay_time
    table = render_table(
        ["System", "Execution", "Commitment", "Replay (s)", "Gain vs OFS"],
        [
            ["ofs", "serial", "sync per op", f"{rows['ofs'].replay_time:.3f}", "-"],
            ["cx-serial-exec", "serial", "lazy batched",
             f"{rows['cx-serial-exec'].replay_time:.3f}",
             f"{1 - rows['cx-serial-exec'].replay_time / base:.1%}"],
            ["cx (threshold=1)", "concurrent", "immediate",
             f"{rows['cx-immediate'].replay_time:.3f}",
             f"{1 - rows['cx-immediate'].replay_time / base:.1%}"],
            ["cx", "concurrent", "lazy batched",
             f"{rows['cx'].replay_time:.3f}",
             f"{1 - rows['cx'].replay_time / base:.1%}"],
        ],
        title=f"Ablation — Cx mechanism decomposition on {TRACE}",
    )
    print("\n" + table)

    t = {k: v.replay_time for k, v in rows.items()}
    # Full Cx is the best configuration; OFS the worst.
    assert t["cx"] == min(t.values())
    assert t["ofs"] == max(t.values())
    # Each mechanism alone already beats OFS...
    assert t["cx-serial-exec"] < t["ofs"] * 0.95
    assert t["cx-immediate"] < t["ofs"] * 0.98
    # ...and the full protocol beats each single-mechanism variant.
    assert t["cx"] < t["cx-serial-exec"] * 0.98
    assert t["cx"] < t["cx-immediate"] * 0.98
    # Immediate commitment keeps Cx correct but costs messages: the
    # batched version sends far fewer.
    assert rows["cx"].messages < rows["cx-immediate"].messages
