"""The scale experiment family end to end (quick grid, tiny streams)."""

from __future__ import annotations

import json

from repro.experiments.scale import (
    PROTOCOLS,
    SCALE_JSON,
    run_scale,
    scale_tasks,
)


def test_quick_sweep_end_to_end(tmp_path):
    result = run_scale(
        seed=0, jobs=1, quick=True, total_ops=600, out_dir=str(tmp_path)
    )
    # Quick grid: (16, 64) servers x 3 protocols + 2 cross fracs x 3.
    assert len(result.rows) == 12
    for row in result.rows:
        assert row["protocol"] in PROTOCOLS
        assert row["ops"] > 0
        assert row["failed_ops"] == 0
        assert row["throughput"] > 0
        assert row["events_per_sec"] > 0
        assert row["latency_p99_ms"] >= row["latency_p50_ms"] > 0
        # Setup and replay wall are reported separately, per cell.
        assert row["setup_wall_s"] >= 0
        assert row["replay_wall_s"] > 0
        assert 0 < row["servers_materialized"] <= row["servers"]
    servers_seen = {r["servers"] for r in result.rows if r["phase"] == "scaling"}
    assert servers_seen == {16, 64}
    # The sensitivity ramp's observed cross fraction tracks the knob.
    by_frac = {}
    for r in result.rows:
        if r["phase"] == "sensitivity" and r["protocol"] == "cx":
            by_frac[r["cross_frac"]] = r["cross_frac_observed"]
    assert by_frac[0.9] > by_frac[0.1]
    # Both sections render, with the setup/replay split visible.
    assert "cross-server fraction ramp" in result.text
    assert "setup s" in result.text and "replay s" in result.text

    payload = json.loads((tmp_path / SCALE_JSON).read_text())
    assert payload["experiment"] == "scale"
    assert payload["quick"] is True
    assert payload["rows"] == result.rows


def test_grid_is_deterministic_across_jobs():
    a = run_scale(seed=3, jobs=1, quick=True, total_ops=400,
                  server_counts=(16,), cross_fracs=(0.5,))
    b = run_scale(seed=3, jobs=2, quick=True, total_ops=400,
                  server_counts=(16,), cross_fracs=(0.5,))
    keys = ("ops", "throughput", "events_processed", "cross_frac_observed",
            "latency_p99_ms", "servers_materialized")
    for ra, rb in zip(a.rows, b.rows):
        for k in keys:
            assert ra[k] == rb[k], k


def test_scale_tasks_grid_shape():
    cells = scale_tasks(quick=False)
    # Full grid: 3 server counts x 3 protocols + 4 fracs x 3 protocols.
    assert len(cells) == 21
    metas = [m for m, _t in cells]
    assert {m["servers"] for m in metas if m["phase"] == "scaling"} == {
        16, 64, 256
    }
    tasks = [t for _m, t in cells]
    assert all(t.kind == "synth" for t in tasks)
    assert all(t.total_ops == 1_000_000 for t in tasks)
