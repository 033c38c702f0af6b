"""The fault-schedule explorer: determinism, shrinking, resume, repro.

Everything the explorer emits is a pure function of ``(seed, schedule
index)`` — these tests pin that (byte-identical resume files across
runs and across worker counts), the ddmin shrinker (a known-bad canary
schedule reduces to its one guilty fault), the resume protocol, and
the minimal-repro artifact format.
"""

import json
import os

import pytest

from repro.faultfuzz import (
    Fault,
    ddmin,
    generate_schedule,
    run_fuzz,
    run_schedule,
    shrink_schedule,
)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSchedule:
    def test_generation_is_pure(self):
        a = generate_schedule(7, 3, 4)
        b = generate_schedule(7, 3, 4)
        assert a == b
        assert a != generate_schedule(7, 4, 4)

    def test_generated_faults_are_well_formed(self):
        for index in range(16):
            for f in generate_schedule(0, index, 4):
                assert f.at >= 0
                if f.kind == "crash":
                    assert 0 <= f.a < 4
                if f.kind == "partition":
                    assert f.a != f.b and f.until > f.at
                assert f.kind != "corrupt"  # never generated randomly

    def test_sorted_by_coordinate(self):
        for index in range(8):
            ats = [f.at for f in generate_schedule(1, index, 4)]
            assert ats == sorted(ats)

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault(kind="meteor", at=1)
        with pytest.raises(ValueError):
            Fault(kind="crash", at=-5, a=0)

    def test_fault_dict_roundtrip(self):
        f = Fault(kind="partition", at=100, a=1, b=3, until=900)
        assert Fault.from_dict(f.to_dict()) == f


class TestDdmin:
    def test_reduces_to_guilty_pair(self):
        items = list(range(1, 9))
        assert ddmin(items, lambda s: {3, 6} <= set(s)) == [3, 6]

    def test_single_culprit(self):
        assert ddmin(list(range(20)), lambda s: 13 in s) == [13]

    def test_all_needed_stays_whole(self):
        items = [1, 2, 3]
        assert ddmin(items, lambda s: len(s) == 3) == items

    def test_preserves_order(self):
        items = list(range(10))
        out = ddmin(items, lambda s: {2, 7, 9} <= set(s))
        assert out == [2, 7, 9]


class TestRunSchedule:
    def test_fault_free_run_is_clean(self):
        res = run_schedule([], seed=0)
        assert res.verdict == "ok"
        assert res.violations == [] and res.applied == []
        assert res.events > 0 and res.vtime > 0

    def test_verdict_is_deterministic(self):
        faults = generate_schedule(0, 2, 4)
        a = run_schedule(faults, seed=0, index=2)
        b = run_schedule(faults, seed=0, index=2)
        assert a.to_dict() == b.to_dict()

    def test_fuzz_cluster_runs_the_experiment_defaults(self):
        """The fuzzer certifies what the experiments run: its params may
        differ from the defaults only in the three timers that scale
        with its 0.05 s commit trigger."""
        from dataclasses import asdict

        from repro.faultfuzz.explorer import NUM_SERVERS, _build_fuzz_cluster
        from repro.params import SimParams

        fuzz = asdict(_build_fuzz_cluster(0)[0].params)
        default = asdict(SimParams(num_servers=NUM_SERVERS))
        assert {k for k in fuzz if fuzz[k] != default[k]} <= {
            "commit_timeout", "vote_retry_timeout", "recovery_rpc_timeout",
        }

    def test_corrupt_canary_always_fails(self):
        res = run_schedule([Fault(kind="corrupt", at=1_500)], seed=0)
        assert res.verdict == "violation"
        assert any("dangling" in v for v in res.violations)


class TestShrink:
    def test_canary_schedule_reduces_to_one_fault(self):
        """Noise faults around the canary corrupt: ddmin isolates it."""
        faults = [
            Fault(kind="delay", at=40, extra=0.25),
            Fault(kind="dup", at=90, extra=0.5),
            Fault(kind="corrupt", at=1_500),
            Fault(kind="drop", at=150),
        ]
        assert run_schedule(faults, seed=0).failed
        shrunk = shrink_schedule(faults, seed=0)
        assert len(shrunk) <= 3
        assert any(f.kind == "corrupt" for f in shrunk)
        assert run_schedule(shrunk, seed=0).failed

    def test_passing_schedule_returned_unchanged(self):
        faults = [Fault(kind="delay", at=40, extra=0.1)]
        if run_schedule(faults, seed=0).failed:  # pragma: no cover
            pytest.skip("benign schedule unexpectedly failed")
        assert shrink_schedule(faults, seed=0) == faults


class TestRunFuzz:
    def test_report_deterministic_across_runs_and_jobs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_fuzz(seed=0, schedules=3, jobs=1, out_dir=str(d1))
        run_fuzz(seed=0, schedules=3, jobs=2, out_dir=str(d2))
        assert _read(d1 / "fuzz_seed0.jsonl") == _read(d2 / "fuzz_seed0.jsonl")

    def test_resume_skips_completed_schedules(self, tmp_path):
        out = str(tmp_path)
        first = run_fuzz(seed=0, schedules=2, out_dir=out)
        assert first.resumed == 0
        second = run_fuzz(seed=0, schedules=4, out_dir=out)
        assert second.resumed == 2
        assert [r.index for r in second.results] == [0, 1, 2, 3]
        # Resuming the full set re-runs nothing and rewrites the same
        # bytes.
        before = _read(tmp_path / "fuzz_seed0.jsonl")
        third = run_fuzz(seed=0, schedules=4, out_dir=out)
        assert third.resumed == 4
        assert _read(tmp_path / "fuzz_seed0.jsonl") == before

    def test_resume_seed_mismatch_raises(self, tmp_path):
        out = str(tmp_path)
        run_fuzz(seed=0, schedules=1, out_dir=out)
        with pytest.raises(ValueError, match="seed"):
            run_fuzz(seed=1, schedules=1, out_dir=out,
                     resume_path=os.path.join(out, "fuzz_seed0.jsonl"))

    def test_failing_schedule_writes_minrepro(self, tmp_path):
        out = str(tmp_path)
        report = run_fuzz(
            seed=0, schedules=1, out_dir=out, shrink=True,
            extra_schedules={0: [
                Fault(kind="delay", at=40, extra=0.25),
                Fault(kind="corrupt", at=1_500),
            ]},
        )
        assert len(report.failures) == 1
        assert report.shrunk[0] and len(report.shrunk[0]) <= 2
        [artifact] = report.artifacts
        lines = [json.loads(line)
                 for line in _read(artifact).decode().splitlines()]
        header = lines[0]
        assert header["type"] == "minrepro"
        assert header["verdict"] == "violation"
        assert "python -m repro fuzz --seed 0" in header["repro"]
        kinds = {line["type"] for line in lines}
        assert {"fault", "shrunk-fault", "violation"} <= kinds


class TestCli:
    def test_fuzz_subcommand_smoke(self, tmp_path):
        from repro.__main__ import main

        rc = main(["fuzz", "--schedules", "1", "--seed", "0",
                   "--out-dir", str(tmp_path)])
        assert rc == 0  # schedule 0 of seed 0 is clean
        assert (tmp_path / "fuzz_seed0.jsonl").exists()

    def test_fuzz_rejects_zero_schedules(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["fuzz", "--schedules", "0"])
