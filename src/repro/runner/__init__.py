"""Parallel experiment runner.

Experiment grids decompose into independent replay cells; this package
describes each cell as a picklable :class:`ReplayTask`, builds it into
a live cluster with :func:`build_run` (the one builder), executes grids
serially or across a process pool (:func:`run_tasks`), and returns
deterministic, task-ordered :class:`TaskOutcome` lists whatever the
completion order was.
"""

from repro.runner.pool import (
    RunnerResult,
    TaskFailed,
    TaskOutcome,
    resolve_jobs,
    run_tasks,
)
from repro.runner.tasks import ReplaySummary, ReplayTask, build_run, execute_task

__all__ = [
    "ReplaySummary",
    "ReplayTask",
    "RunnerResult",
    "TaskFailed",
    "TaskOutcome",
    "build_run",
    "execute_task",
    "resolve_jobs",
    "run_tasks",
]
