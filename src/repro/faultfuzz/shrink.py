"""Schedule shrinking: ddmin over the fault list.

A failing schedule usually carries faults that played no part in the
violation (a drop the retry absorbed, a crash of an idle server).
:func:`shrink_schedule` reduces the fault list with the classic ddmin
algorithm — try dropping chunks, keep any reduction that still fails —
re-replaying the workload for every candidate.  Replays are
deterministic, so the shrink itself is deterministic: the same failing
schedule always reduces to the same minimal fault list.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

from repro.faultfuzz.schedule import Fault

T = TypeVar("T")


def ddmin(items: Sequence[T], fails: Callable[[List[T]], bool]) -> List[T]:
    """Zeller's ddmin: a 1-minimal sublist of ``items`` where ``fails``
    still holds.

    ``fails(list(items))`` must be true on entry.  The result is
    1-minimal: removing any single remaining element makes the
    predicate pass.  ``fails`` is invoked O(n^2) times worst case; the
    fuzz schedules hold <= ~6 faults, so this stays cheap.
    """
    items = list(items)
    n = 2
    while len(items) >= 2:
        chunk = len(items) // n
        reduced = False
        # Try each complement (the list minus one chunk).
        for i in range(n):
            lo = i * chunk
            hi = (i + 1) * chunk if i < n - 1 else len(items)
            candidate = items[:lo] + items[hi:]
            if candidate and fails(candidate):
                items = candidate
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(items):
                break
            n = min(n * 2, len(items))
    if len(items) == 1 and not fails(items):  # pragma: no cover - defensive
        return []
    return items


def shrink_schedule(faults: Sequence[Fault], seed: int, index: int = 0,
                    protocol: str = "cx") -> List[Fault]:
    """Minimal sub-schedule of ``faults`` that still fails the oracle.

    The predicate re-replays the workload under the candidate fault
    list (same workload ``seed`` and ``protocol``; ``index`` only
    labels intermediate results).  If the full schedule unexpectedly
    passes on re-run — impossible for a deterministic replay unless the
    caller passed a clean schedule — it is returned unchanged.
    """
    from repro.faultfuzz.explorer import run_schedule

    faults = list(faults)

    def fails(candidate: List[Fault]) -> bool:
        return run_schedule(candidate, seed=seed, index=index,
                            protocol=protocol).failed

    if not faults or not fails(faults):
        return faults
    return ddmin(faults, fails)
