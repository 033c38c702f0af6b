"""Scheduler-equivalence golden tests.

The hot-path work (pooled event-queue nodes, handler slots instead of
per-message processes, the Cx commitment fast path) must not change
*what* a replay computes — only how fast.  These tests replay the
cells of ``regen_golden.py`` — at least one per protocol — and compare
the **entire** summary, field by field, against values committed in
``replay_golden.json``.  Two of them carry the Cx-specific weight:

* ``fig5_CTH_cx`` — the CTH trace under Cx (the paper's headline cell
  and the bench's timing cell);
* ``fig8_home2_cx_inject0.12`` — home2 under Cx with injected
  conflicting probes (Fig. 8's lookups on active objects): 1,433
  blocked requests and 898 immediately committed ops (``conflicts``,
  ``commit.immediate_ops``) against CTH's 13 each, i.e. the ordered
  conflict path of Fig. 3(a).  It performs **no** disordered-conflict
  invalidation and defers no vote (neither meter is ever written);
  those are pinned by ``tests/core/test_cx_conflicts.py``.

Byte-identical here means: event count, every ops/latency/message
statistic, and every per-server metrics snapshot (meter *sets* as well
as values — a fast path that eagerly created a meter, or skipped one,
fails these tests even if the replay outcome matches).

The golden file was generated from the pre-optimization scheduler; to
regenerate after an *intentional* semantic change::

    PYTHONPATH=src python tests/golden/regen_golden.py
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict

import pytest

from repro.protocols import PROTOCOL_NAMES
from repro.runner.tasks import ReplayTask, execute_task

GOLDEN_FILE = pathlib.Path(__file__).parent / "replay_golden.json"


def _golden():
    with open(GOLDEN_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("cell", sorted(_golden()))
def test_replay_matches_golden(cell):
    golden = _golden()[cell]
    task = ReplayTask(**golden["task"])
    summary = asdict(execute_task(task))

    expected = golden["summary"]
    assert set(summary) == set(expected), "summary schema drifted"

    # Compare scalars first for a readable failure, then the nested
    # per-server metrics snapshots in full.
    for key in sorted(expected):
        if key == "server_metrics":
            continue
        assert summary[key] == expected[key], (
            f"{cell}: summary.{key} diverged from golden"
        )

    got_metrics = summary["server_metrics"]
    want_metrics = expected["server_metrics"]
    assert set(got_metrics) == set(want_metrics), (
        f"{cell}: per-server metrics node set diverged"
    )
    for node in sorted(want_metrics):
        assert got_metrics[node] == want_metrics[node], (
            f"{cell}: metrics snapshot for {node} diverged"
        )


def test_every_protocol_has_a_golden_cell():
    """A protocol without a cell could change its schedule unnoticed."""
    pinned = {cell["task"]["protocol"] for cell in _golden().values()}
    assert set(PROTOCOL_NAMES) <= pinned, (
        f"no golden cell for {sorted(set(PROTOCOL_NAMES) - pinned)}"
    )
