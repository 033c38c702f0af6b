"""Regenerate ``replay_golden.json`` (intentional semantic changes only).

Usage::

    PYTHONPATH=src python tests/golden/regen_golden.py

Only run this when a PR *deliberately* changes replay semantics (new
protocol behavior, parameter defaults, trace generation).  A perf PR
must never need it — if the golden tests fail under a pure
optimization, the optimization is wrong.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict

from repro.runner.tasks import ReplayTask, execute_task

GOLDEN_FILE = pathlib.Path(__file__).parent / "replay_golden.json"

CELLS = {
    "fig5_CTH_cx": ReplayTask(kind="trace", trace="CTH", protocol="cx",
                              seed=0),
    # The other two bench protocols on the same trace, so the golden
    # suite pins byte-identical schedules for every protocol the perf
    # gate times (a kernel refactor that only preserved the Cx path
    # would slip through a cx-only suite).
    "fig5_CTH_ofs": ReplayTask(kind="trace", trace="CTH", protocol="ofs",
                               seed=0),
    "fig5_CTH_ofs-batched": ReplayTask(kind="trace", trace="CTH",
                                       protocol="ofs-batched", seed=0),
    "fig8_home2_cx_inject0.12": ReplayTask(kind="inject", trace="home2",
                                           protocol="cx", seed=0,
                                           p_inject=0.12),
    # The remaining protocols, so every name in PROTOCOL_NAMES has a
    # byte-level pin (the baselines share server-side steps with Cx),
    # plus one read-heavy cell for the read path.
    "fig5_CTH_2pc": ReplayTask(kind="trace", trace="CTH", protocol="2pc",
                               seed=0),
    "fig5_CTH_ce": ReplayTask(kind="trace", trace="CTH", protocol="ce",
                              seed=0),
    "fig5_CTH_cx-serial-exec": ReplayTask(kind="trace", trace="CTH",
                                          protocol="cx-serial-exec", seed=0),
    "fig5_home2_2pc": ReplayTask(kind="trace", trace="home2",
                                 protocol="2pc", seed=0),
}


def _changes(old: dict, new: dict, prefix: str = ""):
    """``(field, old, new)`` for every leaf that differs; a nested dict
    (the per-node meter snapshots) is walked down to its meter keys."""
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key, "<absent>"), new.get(key, "<absent>")
        if isinstance(a, dict) and isinstance(b, dict):
            yield from _changes(a, b, f"{prefix}{key}.")
        elif a != b:
            yield f"{prefix}{key}", a, b


def main() -> None:
    previous = {}
    if GOLDEN_FILE.exists():
        with open(GOLDEN_FILE, "r", encoding="utf-8") as fh:
            previous = json.load(fh)
    payload = {}
    for name, task in CELLS.items():
        summary = execute_task(task)
        payload[name] = {"task": asdict(task), "summary": asdict(summary)}
        print(f"{name}: events={summary.events_processed} "
              f"ops={summary.total_ops}")
        # Show what moved before it is overwritten: a regenerated golden
        # must be explained field by field, not taken on trust.
        changes = list(_changes(previous.get(name, {}), payload[name]))
        for field, old, new in changes:
            print(f"  {field}: {old} -> {new}")
        if not changes:
            print("  unchanged")
    with open(GOLDEN_FILE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_FILE}")


if __name__ == "__main__":
    main()
