"""Traced replay runs: the ``python -m repro trace`` / ``analyze`` paths.

``trace`` re-runs one experiment's canonical replay task
(:data:`TRACEABLE`, built by :func:`repro.runner.build_run` like every
other run) with the tracer enabled, exports the event stream (Chrome
trace-event JSON for Perfetto, optionally JSONL), prints per-server
metrics, and validates the protocol invariants from the trace.

``analyze`` does the same replay and then walks each operation's causal
span DAG into a critical-path phase breakdown
(:mod:`repro.obs.critpath`) — the per-protocol "where does the latency
go" tables.

Both accept ``sample``/``ring`` to run in the always-on low-overhead
mode (deterministic 1-in-N sampling, bounded flight-recorder buffer);
when the invariant checker fires or the replay raises, the recorder's
last events are dumped as JSONL for post-mortem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.obs import (
    SamplingTracer,
    Tracer,
    Violation,
    check_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.critpath import CritPathReport, analyze_trace
from repro.runner import ReplaySummary, ReplayTask, build_run
from repro.runner.tasks import finish_summary

#: Experiments a traced run knows how to reproduce, mapped to their
#: canonical task: Fig. 8's is its golden cell, home2 with a 0.12
#: conflict-probe injection rate.
TRACEABLE: Dict[str, ReplayTask] = {
    "fig5": ReplayTask(kind="trace", trace="CTH"),
    "fig8": ReplayTask(kind="inject", trace="home2", p_inject=0.12),
    "table4": ReplayTask(kind="trace", trace="CTH"),
}

#: Events in a flight-recorder post-mortem dump.
FLIGHT_DUMP_LAST = 256


def traced_task(experiment: str, **overrides) -> ReplayTask:
    """``experiment``'s canonical task with every non-None override
    applied (``trace=``, ``protocol=``, ``scale=``, ``seed=``)."""
    task = TRACEABLE.get(experiment)
    if task is None:
        raise ValueError(
            f"no traced replay for {experiment!r}; "
            f"available: {', '.join(sorted(TRACEABLE))}"
        )
    return replace(task, label=experiment, **{
        k: v for k, v in overrides.items() if v is not None
    })


def _make_tracer(sample: Optional[int], ring: Optional[int]) -> Tracer:
    if sample is not None:
        return SamplingTracer(every=sample, ring=ring)
    return Tracer(ring=ring)


def _flight_dump(tracer: Tracer, path: Optional[str], why: str) -> None:
    if not path:
        return
    n = tracer.dump_jsonl(path, last=FLIGHT_DUMP_LAST)
    print(f"flight recorder ({why}): last {n} events -> {path}")


@dataclass
class TracedReplay:
    """Everything a traced replay produced."""

    task: ReplayTask
    summary: ReplaySummary
    tracer: Tracer
    violations: List[Violation]

    @property
    def text(self) -> str:
        task, s = self.task, self.summary
        lines = [
            f"traced {task.label or task.kind} replay: workload={task.trace} "
            f"protocol={task.protocol}",
            f"  ops={s.total_ops} (cross-server {s.cross_server_ops}), "
            f"replay_time={s.replay_time:.3f}s, "
            f"events={len(self.tracer.events)}",
            f"  invariant violations: {len(self.violations)}",
        ]
        for v in self.violations[:10]:
            lines.append(f"    {v}")
        return "\n".join(lines)


def run_traced_replay(
    task: ReplayTask,
    trace_file: Optional[str] = None,
    jsonl_file: Optional[str] = None,
    sample: Optional[int] = None,
    ring: Optional[int] = None,
    flight_file: Optional[str] = None,
) -> TracedReplay:
    """Replay ``task`` with tracing enabled and check its invariants.

    ``sample``/``ring`` switch to the always-on tracer configuration;
    ``flight_file`` receives a JSONL dump of the recorder's most recent
    events when the replay raises or the invariant checker fires.
    """
    run = build_run(task, tracer=_make_tracer(sample, ring))
    tracer = run.cluster.tracer
    try:
        summary = finish_summary(run.cluster, run.replay())
    except BaseException:
        _flight_dump(tracer, flight_file, "replay raised")
        raise

    violations = check_trace(tracer, protocol=task.protocol)
    if violations:
        _flight_dump(tracer, flight_file, f"{len(violations)} violations")
    if trace_file:
        write_chrome_trace(tracer.events, trace_file)
    if jsonl_file:
        write_jsonl(tracer.events, jsonl_file)
    return TracedReplay(task, summary, tracer, violations)


@dataclass
class AnalyzeResult:
    """A traced replay plus its critical-path report."""

    replay: TracedReplay
    report: CritPathReport

    @property
    def text(self) -> str:
        return self.replay.text + "\n\n" + self.report.text


def run_analyze(
    task: ReplayTask,
    sample: Optional[int] = None,
    ring: Optional[int] = None,
    json_file: Optional[str] = None,
    flight_file: Optional[str] = None,
) -> AnalyzeResult:
    """``python -m repro analyze <exp>``: traced replay + critical path.

    Unlike ``trace``, the protocol is a first-class axis here — the
    whole point is comparing where an OFS op waits versus a Cx op
    (``--protocol ofs`` / ``--protocol cx``).
    """
    replay = run_traced_replay(task, sample=sample, ring=ring,
                               flight_file=flight_file)
    report = analyze_trace(replay.tracer, protocol=task.protocol)
    if json_file:
        with open(json_file, "w") as fh:
            fh.write(report.to_json() + "\n")
    # A flight sample is part of the analyze artifact bundle even on a
    # clean run (CI uploads it alongside the phase-breakdown JSON).
    if flight_file and not replay.violations:
        _flight_dump(replay.tracer, flight_file, "sample")
    return AnalyzeResult(replay=replay, report=report)
