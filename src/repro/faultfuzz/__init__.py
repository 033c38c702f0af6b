"""Deterministic fault-schedule explorer (the correctness gate).

``repro.faultfuzz`` replays a fixed metadata workload under seeded
*fault schedules* — server crashes pinned to exact event indices on
the SoA timeline, message drops/duplicates/delays keyed to exact send
counters, partition windows — and runs the trace-driven
:class:`~repro.obs.invariants.InvariantChecker` plus WAL/namespace
post-conditions after every schedule.  The same seed reproduces the
identical schedule list and verdicts byte-for-byte, across runs and
across kernel variants; failing schedules shrink (ddmin) to a minimal
fault list that still violates.

Entry points: ``python -m repro fuzz`` or :func:`run_fuzz`.
"""

from repro.faultfuzz.explorer import (
    FaultScheduler,
    FuzzReport,
    FuzzTask,
    ScheduleResult,
    execute_fuzz_task,
    run_fuzz,
    run_schedule,
)
from repro.faultfuzz.schedule import Fault, generate_schedule
from repro.faultfuzz.shrink import ddmin, shrink_schedule

__all__ = [
    "Fault",
    "FaultScheduler",
    "FuzzReport",
    "FuzzTask",
    "ScheduleResult",
    "ddmin",
    "execute_fuzz_task",
    "generate_schedule",
    "run_fuzz",
    "run_schedule",
    "shrink_schedule",
]
