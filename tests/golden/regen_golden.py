"""Regenerate the golden files (intentional semantic changes only).

Usage::

    PYTHONPATH=src python tests/golden/regen_golden.py          # replays
    PYTHONPATH=src python tests/golden/regen_golden.py --fuzz   # verdicts
    PYTHONPATH=src python tests/golden/regen_golden.py --check-fuzz F

``replay_golden.json`` pins whole replay summaries; ``fuzz_verdicts.json``
pins ``[index, verdict, events, vtime]`` of every certified fuzz
schedule (:data:`FUZZ_PROTOCOLS` x :data:`FUZZ_SEEDS` x
:data:`FUZZ_SCHEDULES`).  ``--check-fuzz`` compares one
``python -m repro fuzz`` resume file against the pinned rows and exits
non-zero on any difference.

Only regenerate when a change *deliberately* changes replay semantics (new
protocol behavior, parameter defaults, trace generation).  A perf PR
must never need it — if the golden tests fail under a pure
optimization, the optimization is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
from dataclasses import asdict

from repro.runner.tasks import ReplayTask, execute_task

GOLDEN_FILE = pathlib.Path(__file__).parent / "replay_golden.json"
FUZZ_FILE = pathlib.Path(__file__).parent / "fuzz_verdicts.json"

#: The fuzz legs CI certifies clean (the ``fuzz-smoke`` matrix).
FUZZ_PROTOCOLS = ("cx", "cx-serial-exec")
FUZZ_SEEDS = (0, 1, 2)
FUZZ_SCHEDULES = 100

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


def regen_replays() -> None:
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


def verdict_rows(resume_path) -> tuple:
    """``(protocol, seed, rows)`` of a fuzz resume file, one
    ``[index, verdict, events, vtime]`` row per schedule."""
    rows = []
    with open(resume_path, "r", encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            if d["type"] == "header":
                protocol, seed = d.get("protocol", "cx"), d["seed"]
            else:
                rows.append([d["index"], d["verdict"], d["events"], d["vtime"]])
    return protocol, seed, sorted(rows)


def _row_changes(old: list, new: list):
    """Lines naming every schedule whose pinned row differs."""
    old_by, new_by = {r[0]: r for r in old}, {r[0]: r for r in new}
    for index in sorted(set(old_by) | set(new_by)):
        a, b = old_by.get(index, "<absent>"), new_by.get(index, "<absent>")
        if a != b:
            yield f"  schedule {index}: {a} -> {b}"


def load_fuzz_verdicts() -> dict:
    with open(FUZZ_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def regen_fuzz() -> None:
    from repro.faultfuzz import run_fuzz

    previous = load_fuzz_verdicts() if FUZZ_FILE.exists() else {}
    pinned: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for protocol in FUZZ_PROTOCOLS:
            for seed in FUZZ_SEEDS:
                path = os.path.join(tmp, f"{protocol}_seed{seed}.jsonl")
                run_fuzz(seed=seed, schedules=FUZZ_SCHEDULES, resume_path=path,
                         out_dir=tmp, protocol=protocol)
                rows = verdict_rows(path)[2]
                pinned.setdefault(protocol, {})[str(seed)] = rows
                old = previous.get(protocol, {}).get(str(seed), [])
                changes = list(_row_changes(old, rows))
                print(f"{protocol} seed {seed}: {len(rows)} schedules")
                print("\n".join(changes) if changes else "  unchanged")
    # One row per line, so a moved verdict is a one-line diff.
    legs = []
    for protocol, seeds in pinned.items():
        body = ",\n".join(
            f'    "{seed}": [\n'
            + ",\n".join("      " + json.dumps(r) for r in rows)
            + "\n    ]"
            for seed, rows in seeds.items()
        )
        legs.append(f'  "{protocol}": {{\n{body}\n  }}')
    with open(FUZZ_FILE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(legs) + "\n}\n")
    print(f"wrote {FUZZ_FILE}")


def check_fuzz(resume_path) -> int:
    """0 when ``resume_path`` reproduces its pinned leg exactly."""
    protocol, seed, rows = verdict_rows(resume_path)
    pinned = load_fuzz_verdicts().get(protocol, {}).get(str(seed))
    if pinned is None:
        print(f"{FUZZ_FILE.name} pins no {protocol} seed {seed} leg")
        return 1
    changes = list(_row_changes(pinned, rows))
    if changes:
        print(f"{protocol} seed {seed} differs from {FUZZ_FILE.name}:")
        print("\n".join(changes))
        return 1
    print(f"{protocol} seed {seed}: {len(rows)} schedules match {FUZZ_FILE.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--fuzz", action="store_true",
                      help="rewrite fuzz_verdicts.json instead of the replays")
    mode.add_argument("--check-fuzz", metavar="RESUME_FILE",
                      help="compare a fuzz resume file with fuzz_verdicts.json")
    args = parser.parse_args(argv)
    if args.check_fuzz:
        return check_fuzz(args.check_fuzz)
    if args.fuzz:
        regen_fuzz()
    else:
        regen_replays()
    return 0


if __name__ == "__main__":
    sys.exit(main())
