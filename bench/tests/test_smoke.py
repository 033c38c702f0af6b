"""Every workload at smoke size, through the same code path as a real
run: each declared metric must appear, with its declared unit.

Smoke-size numbers mean nothing and are never recorded anywhere.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170,
    )


@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_declared_metric(workload, trace, declared):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[declared]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if declared == "end_to_end":
            assert m["value"] > 0, name
        # Every metric is also printed by name with its unit.
        assert any(line.split()[:1] == [name] and line.split()[-1] == m["unit"]
                   for line in proc.stdout.splitlines()), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "flood-256", "--seed", "0", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path,
                     script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""


def test_compare_refuses_mixed_kernel_variants(capsys):
    import run

    def suite(variant):
        return {"host": {"kernel_variant": variant}, "workloads": {}}

    assert run.compare(suite("pure"), suite("compiled")) == 2
    assert "refusing" in capsys.readouterr().err
    assert run.compare(suite("pure"), suite("pure")) == 0
