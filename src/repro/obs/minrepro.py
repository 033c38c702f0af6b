"""Minimal-repro artifacts for failing fault schedules.

One JSONL file per failing schedule: a header with the verdict, the
original and (when shrunk) minimal fault lists, every violation the
oracle reported, the applied-action log, and the exact command that
regenerates the failure.  CI's ``fuzz-smoke`` job uploads these; a
developer replays one with the recorded seed and fault list and gets
the identical trace.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional


def write_minrepro(path: str, result, protocol: str,
                   shrunk: Optional[List[Dict]] = None) -> str:
    """Write the repro artifact for one failing :class:`ScheduleResult`
    of a ``protocol`` run.

    ``shrunk``, when given, is the ddmin-reduced fault list (as dicts);
    otherwise the artifact carries only the original schedule.  Returns
    ``path``.  Deterministic: every line is ``json.dumps(...,
    sort_keys=True)`` of wall-clock-free fields.
    """
    lines: List[Dict] = [{
        "type": "minrepro",
        "protocol": protocol,
        "seed": result.seed,
        "index": result.index,
        "verdict": result.verdict,
        "events": result.events,
        "vtime": result.vtime,
        "n_faults": len(result.faults),
        "n_shrunk": len(shrunk) if shrunk is not None else None,
        "repro": (f"python -m repro fuzz --seed {result.seed} "
                  f"--schedules {result.index + 1} --protocol {protocol}"),
    }]
    for f in result.faults:
        lines.append({"type": "fault", **f})
    if shrunk is not None:
        for f in shrunk:
            lines.append({"type": "shrunk-fault", **f})
    for v in result.violations:
        lines.append({"type": "violation", "detail": v})
    if result.error:
        lines.append({"type": "error", "detail": result.error})
    for a in result.applied:
        lines.append({"type": "applied", "detail": a})
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    return path
