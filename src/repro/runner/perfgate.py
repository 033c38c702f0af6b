"""``python -m repro perf-gate`` — CI regression gate over the bench.

Runs the quick kernel bench and compares every ``events_per_sec``
number (the event-loop microbenchmark and each protocol's canonical
replay) against the committed ``BENCH_kernel.json`` trajectory file:

* ratio below the **fail** threshold (default 0.6x) -> exit code 1;
* ratio below the **warn** threshold (default 0.9x) -> warning, exit 0;
* otherwise the row passes.

The thresholds are deliberately loose: the committed baseline is a
full-size run while the gate runs ``--quick`` (different replay scale,
so absolute throughput differs somewhat), and CI hosts are noisy.  The
gate exists to catch the step-function regressions a hot-path refactor
can introduce — a 2x slowdown — not 5% drift; the committed trajectory
files remain the precision record.

The fresh quick-bench payload is scratch output, not trajectory: it is
written under ``artifacts/`` (default
``artifacts/BENCH_kernel_fresh.json``) so CI can upload it without the
repo root accumulating uncommitted ``BENCH_*_fresh.json`` files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.runner.bench import KERNEL_FILE, bench_kernel

#: Fresh quick-bench payload, uploaded by CI next to the report.
#: Scratch output lives under artifacts/, never at the repo root.
FRESH_FILE = os.path.join("artifacts", "BENCH_kernel_fresh.json")

#: The warn line is the attention signal; the fail line is the hard
#: backstop.  The fresh run is quick-scale and the baseline full-scale,
#: measured minutes-to-months apart on hosts whose frequency phases
#: swing 25-35% — a 0.7 fail line tripped on healthy code whenever the
#: baseline was benched in a fast phase and the gate ran in a slow one.
FAIL_RATIO = 0.6
WARN_RATIO = 0.9

#: Always-on tracing budget: the sampled tracer may cost at most this
#: fraction of untraced replay wall time (the bench's ``tracing`` arm).
#: Rebased from 0.10 when the SoA timeline landed: the tracer's
#: absolute per-event cost did not change, but the untraced replay it
#: is measured against got ~30% faster, so the same tracer is a larger
#: *fraction* of a smaller denominator (measured 8–13% across runs on
#: a noisy host, vs ~4–8% before the kernel speedup).
OVERHEAD_BUDGET = 0.15


@dataclass
class GateRow:
    """One compared events/sec number."""

    key: str
    baseline: float
    fresh: float
    ratio: float
    status: str  # "pass" | "warn" | "fail"


@dataclass
class GateReport:
    rows: List[GateRow] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    fail_ratio: float = FAIL_RATIO
    warn_ratio: float = WARN_RATIO
    #: Measured sampled-tracing overhead fraction (None if the fresh
    #: payload predates the bench's tracing arm).
    tracing_overhead: Optional[float] = None
    overhead_budget: float = OVERHEAD_BUDGET

    @property
    def tracing_ok(self) -> bool:
        return (self.tracing_overhead is None
                or self.tracing_overhead <= self.overhead_budget)

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.rows) or not self.tracing_ok

    @property
    def text(self) -> str:
        lines = [
            f"perf gate: fail below {self.fail_ratio:.2f}x, "
            f"warn below {self.warn_ratio:.2f}x of committed {KERNEL_FILE}"
        ]
        for r in self.rows:
            lines.append(
                f"  [{r.status.upper():>4}] {r.key}: "
                f"{r.fresh:,.0f} events/s vs baseline {r.baseline:,.0f} "
                f"({r.ratio:.2f}x)"
            )
        for key in self.skipped:
            lines.append(f"  [SKIP] {key}: not in both baseline and fresh run")
        if self.tracing_overhead is None:
            lines.append(
                "  [SKIP] tracing overhead: no 'tracing' arm in fresh bench"
            )
        else:
            status = "PASS" if self.tracing_ok else "FAIL"
            lines.append(
                f"  [{status:>4}] tracing overhead: "
                f"{self.tracing_overhead * 100:+.1f}% with sampling "
                f"(budget {self.overhead_budget * 100:.0f}%)"
            )
        verdict = "FAIL" if self.failed else "PASS"
        lines.append(f"perf gate verdict: {verdict}")
        return "\n".join(lines)


def _rates(payload: Dict[str, object]) -> Dict[str, float]:
    """Flatten a BENCH_kernel payload to ``key -> events_per_sec``."""
    rates: Dict[str, float] = {}
    loop = payload.get("event_loop")
    if isinstance(loop, dict) and "events_per_sec" in loop:
        rates["event_loop"] = float(loop["events_per_sec"])
    replays = payload.get("replays")
    if isinstance(replays, dict):
        for protocol, row in replays.items():
            if isinstance(row, dict) and "events_per_sec" in row:
                rates[f"replay/{row.get('trace', '?')}/{protocol}"] = float(
                    row["events_per_sec"]
                )
    return rates


def compare(
    baseline: Dict[str, object],
    fresh: Dict[str, object],
    fail_ratio: float = FAIL_RATIO,
    warn_ratio: float = WARN_RATIO,
    overhead_budget: float = OVERHEAD_BUDGET,
) -> GateReport:
    """Pure comparison of two BENCH_kernel payloads (testable)."""
    base_rates = _rates(baseline)
    fresh_rates = _rates(fresh)
    report = GateReport(fail_ratio=fail_ratio, warn_ratio=warn_ratio,
                        overhead_budget=overhead_budget)
    # The overhead budget is self-contained in the fresh run (its two
    # arms replay identical streams); the baseline is not consulted.
    tracing = fresh.get("tracing")
    if isinstance(tracing, dict) and "overhead_frac" in tracing:
        report.tracing_overhead = float(tracing["overhead_frac"])
    for key in sorted(set(base_rates) | set(fresh_rates)):
        if key not in base_rates or key not in fresh_rates:
            report.skipped.append(key)
            continue
        base = base_rates[key]
        new = fresh_rates[key]
        ratio = new / base if base > 0 else float("inf")
        if ratio < fail_ratio:
            status = "fail"
        elif ratio < warn_ratio:
            status = "warn"
        else:
            status = "pass"
        report.rows.append(
            GateRow(key=key, baseline=base, fresh=new, ratio=ratio,
                    status=status)
        )
    return report


def run_perf_gate(
    baseline_path: Optional[str] = None,
    fresh_path: Optional[str] = None,
    quick: bool = True,
    seed: int = 0,
    fail_ratio: float = FAIL_RATIO,
    warn_ratio: float = WARN_RATIO,
    rounds: int = 3,
) -> int:
    """Run the gate end to end; returns the process exit code.

    The fresh measurement is best-of-``rounds``, mirroring how the
    committed baseline is produced (``bench --rounds``): comparing a
    single fresh run against a best-of baseline would fail the gate
    whenever the host happens to be in a slow phase, not when the code
    regressed.
    """
    baseline_path = baseline_path or KERNEL_FILE
    fresh_path = fresh_path or FRESH_FILE
    if not os.path.exists(baseline_path):
        print(
            f"perf gate: no committed baseline at {baseline_path}; "
            "run 'python -m repro bench' and commit BENCH_kernel.json"
        )
        return 1
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)

    fresh = bench_kernel(quick=quick, seed=seed, rounds=rounds)
    fresh_dir = os.path.dirname(fresh_path)
    if fresh_dir:
        os.makedirs(fresh_dir, exist_ok=True)
    with open(fresh_path, "w", encoding="utf-8") as fh:
        json.dump(fresh, fh, indent=2, sort_keys=True)
        fh.write("\n")

    report = compare(
        baseline, fresh, fail_ratio=fail_ratio, warn_ratio=warn_ratio
    )
    print(report.text)
    print(f"fresh quick-bench payload written to {fresh_path}")
    return 1 if report.failed else 0
