"""Perf-gate comparison logic and the profile driver."""

from __future__ import annotations

import json

from repro.runner.perfgate import FRESH_FILE, compare, run_perf_gate
from repro.runner.profile import profile_experiment


def _payload(loop_rate, replay_rates):
    return {
        "event_loop": {"events_per_sec": loop_rate},
        "replays": {
            protocol: {"trace": "CTH", "events_per_sec": rate}
            for protocol, rate in replay_rates.items()
        },
    }


def test_compare_all_pass():
    base = _payload(100_000.0, {"cx": 50_000.0})
    fresh = _payload(101_000.0, {"cx": 55_000.0})
    report = compare(base, fresh)
    assert not report.failed
    assert [r.status for r in report.rows] == ["pass", "pass"]
    assert "PASS" in report.text


def test_compare_warn_and_fail_thresholds():
    base = _payload(100_000.0, {"cx": 100_000.0, "ofs": 100_000.0})
    fresh = _payload(85_000.0, {"cx": 55_000.0, "ofs": 95_000.0})
    report = compare(base, fresh)
    by_key = {r.key: r.status for r in report.rows}
    assert by_key["event_loop"] == "warn"       # 0.85x
    assert by_key["replay/CTH/cx"] == "fail"    # 0.55x
    assert by_key["replay/CTH/ofs"] == "pass"   # 0.95x
    assert report.failed


def test_compare_skips_unmatched_keys():
    base = _payload(100_000.0, {"cx": 100_000.0, "2pc": 90_000.0})
    fresh = _payload(100_000.0, {"cx": 100_000.0})
    report = compare(base, fresh)
    assert report.skipped == ["replay/CTH/2pc"]
    assert not report.failed


def test_compare_tracing_overhead_within_budget():
    base = _payload(100_000.0, {"cx": 100_000.0})
    fresh = _payload(100_000.0, {"cx": 100_000.0})
    fresh["tracing"] = {"overhead_frac": 0.06}
    report = compare(base, fresh)
    assert report.tracing_overhead == 0.06
    assert report.tracing_ok
    assert not report.failed
    assert "tracing overhead: +6.0%" in report.text


def test_compare_tracing_overhead_over_budget_fails():
    base = _payload(100_000.0, {"cx": 100_000.0})
    fresh = _payload(100_000.0, {"cx": 100_000.0})
    fresh["tracing"] = {"overhead_frac": 0.17}
    report = compare(base, fresh)
    # Every throughput row passes, but the always-on budget does not.
    assert all(r.status == "pass" for r in report.rows)
    assert not report.tracing_ok
    assert report.failed
    assert "FAIL" in report.text


def test_compare_without_tracing_arm_skips_budget():
    base = _payload(100_000.0, {"cx": 100_000.0})
    fresh = _payload(100_000.0, {"cx": 100_000.0})
    report = compare(base, fresh)
    assert report.tracing_overhead is None
    assert not report.failed
    assert "no 'tracing' arm" in report.text


def test_run_perf_gate_missing_baseline(tmp_path):
    code = run_perf_gate(
        baseline_path=str(tmp_path / "nope.json"),
        fresh_path=str(tmp_path / FRESH_FILE),
    )
    assert code == 1


def test_profile_experiment_replay_cell(tmp_path):
    json_file = tmp_path / "prof.json"
    report = profile_experiment(
        "fig5", workload="CTH", scale=0.002, top=10,
        json_file=str(json_file),
    )
    assert report.workload == "CTH"
    assert report.protocol == "cx"
    assert report.events_processed and report.events_processed > 0
    assert report.hotspots and len(report.hotspots) <= 10
    assert "events/s under the profiler" in report.text
    payload = json.loads(json_file.read_text())
    assert payload["experiment"] == "fig5"
    assert payload["hotspots"]


def test_run_perf_gate_same_variant_proceeds(tmp_path, monkeypatch):
    import repro.runner.perfgate as pg

    baseline = _payload(100_000.0, {"cx": 100_000.0})
    baseline_path = tmp_path / "BENCH_kernel.json"
    baseline_path.write_text(json.dumps(baseline))

    fresh = _payload(100_000.0, {"cx": 101_000.0})
    monkeypatch.setattr(pg, "bench_kernel", lambda **kw: fresh)

    code = run_perf_gate(
        baseline_path=str(baseline_path),
        fresh_path=str(tmp_path / FRESH_FILE),
    )
    assert code == 0
