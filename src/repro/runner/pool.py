"""Fan independent replay cells across a process pool.

The experiment grids are embarrassingly parallel — every (trace ×
protocol × num_servers × seed) cell replays on its own private cluster
— so the runner practices what the paper preaches: independent work
runs concurrently, and the per-cell results are merged afterwards.

Guarantees:

* **Deterministic ordering** — outcomes come back in task-list order,
  whatever the completion order was.
* **Per-task seeding** — every task carries its own seed; results are
  identical for ``jobs=1`` and ``jobs=N``.
* **Worker-side exception capture** — a failing cell does not tear
  down the pool; the traceback travels back in its outcome.
* **Serial fallback** — ``jobs=1`` never touches multiprocessing, and
  a pool that cannot start (sandboxed platforms, no semaphores)
  degrades to the serial path with a warning instead of crashing.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs.registry import merge_snapshot_dicts
from repro.runner.tasks import ReplaySummary, ReplayTask, execute_task


class TaskFailed(RuntimeError):
    """At least one task raised in its worker; see ``failures``."""

    def __init__(self, failures: List["TaskOutcome"]) -> None:
        self.failures = failures
        first = failures[0]
        # Task specs other than ReplayTask (the fuzzer's FuzzTask) may
        # not carry kind/trace/protocol; degrade to the class name.
        kind = getattr(first.task, "kind", type(first.task).__name__)
        trace = getattr(first.task, "trace", None) or "-"
        protocol = getattr(first.task, "protocol", "-")
        super().__init__(
            f"{len(failures)} of the submitted tasks failed; first: "
            f"task #{first.index} ({kind}/{trace}/{protocol}):\n{first.error}"
        )


@dataclass
class TaskOutcome:
    """One task's result: a summary on success, a traceback on failure."""

    index: int
    task: ReplayTask
    summary: Optional[ReplaySummary] = None
    #: Formatted traceback when the worker raised; None on success.
    error: Optional[str] = None
    #: Wall-clock seconds the task took inside its worker.
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class RunnerResult:
    """All outcomes of one grid, in task order, plus merged metrics."""

    outcomes: List[TaskOutcome]
    jobs: int
    wall_time: float
    #: True when a requested pool could not start and the grid ran serially.
    fell_back_serial: bool = False

    @property
    def summaries(self) -> List[Optional[ReplaySummary]]:
        return [o.summary for o in self.outcomes]

    @property
    def failures(self) -> List[TaskOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def merged_cluster_metrics(self) -> Dict[str, object]:
        """Cluster-wide metrics view folded across every task's servers.

        Workers cannot share live registries across process boundaries;
        they ship per-server snapshot dicts, merged here (counters sum,
        gauges keep high-water marks, histograms combine moments).
        """
        per_server: List[Dict[str, object]] = []
        for o in self.outcomes:
            metrics = getattr(o.summary, "server_metrics", None)
            if metrics is None:
                continue
            per_server.extend(
                snap for node, snap in metrics.items() if node != "cluster"
            )
        return merge_snapshot_dicts(per_server)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value (None/0 -> all cores)."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _run_one(index: int, task: ReplayTask, fn=execute_task) -> TaskOutcome:
    start = time.perf_counter()
    try:
        summary = fn(task)
    except Exception:
        return TaskOutcome(
            index=index,
            task=task,
            error=traceback.format_exc(),
            wall_time=time.perf_counter() - start,
        )
    return TaskOutcome(
        index=index,
        task=task,
        summary=summary,
        wall_time=time.perf_counter() - start,
    )


def _run_serial(tasks: Sequence[ReplayTask], fn=execute_task) -> List[TaskOutcome]:
    return [_run_one(i, t, fn) for i, t in enumerate(tasks)]


def run_tasks(
    tasks: Sequence[ReplayTask],
    jobs: Optional[int] = 1,
    raise_on_error: bool = True,
    fn=execute_task,
) -> RunnerResult:
    """Execute every task; return outcomes in task order.

    ``jobs=1`` runs in-process; ``jobs>1`` fans across a
    ``ProcessPoolExecutor``.  ``jobs=None`` or ``0`` uses all
    cores.  With ``raise_on_error=False``, failed cells come back as
    outcomes with ``error`` set instead of raising :class:`TaskFailed`.

    ``fn`` is the worker entry point (default: the replay-cell
    executor).  Alternate grids — the fault explorer's schedule fan-out
    — pass their own picklable ``task -> summary`` callable; outcomes
    keep their task-ordered determinism regardless of ``fn``.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    jobs = max(1, min(jobs, len(tasks))) if tasks else 1
    start = time.perf_counter()
    fell_back = False

    if jobs == 1:
        outcomes = _run_serial(tasks, fn)
    else:
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [
                    pool.submit(_run_one, i, t, fn)
                    for i, t in enumerate(tasks)
                ]
                by_index: List[Optional[TaskOutcome]] = [None] * len(tasks)
                for fut in futures:
                    outcome = fut.result()
                    by_index[outcome.index] = outcome
            outcomes = [o for o in by_index if o is not None]
            if len(outcomes) != len(tasks):  # pragma: no cover - defensive
                raise RuntimeError("pool lost task outcomes")
        except (OSError, ImportError, PermissionError) as exc:
            # Platforms without working multiprocessing primitives
            # (sandboxes without /dev/shm, missing semaphores).
            print(
                f"[runner] process pool unavailable ({exc!r}); "
                "falling back to serial execution",
                file=sys.stderr,
            )
            fell_back = True
            outcomes = _run_serial(tasks, fn)

    result = RunnerResult(
        outcomes=outcomes,
        jobs=1 if fell_back else jobs,
        wall_time=time.perf_counter() - start,
        fell_back_serial=fell_back,
    )
    if raise_on_error and result.failures:
        raise TaskFailed(result.failures)
    return result
