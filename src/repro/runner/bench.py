"""``python -m repro bench`` — the repo's wall-clock perf trajectory.

Three benchmark families, three JSON artifacts:

* **BENCH_kernel.json** — single-core kernel numbers: a pure
  event-loop microbenchmark (timeout churn through the inlined run
  loop, no protocol logic) and canonical trace replays per protocol,
  each reported as events/sec and ops/sec of wall-clock time.
* **BENCH_experiments.json** — the experiment-grid numbers: the fig5
  grid run serially and through the parallel runner *in the same
  invocation*, with the wall-clock speedup recorded next to the host's
  core count and the *effective* worker count
  (``min(jobs, cores, cells)``).  When the effective count is 1 — a
  1-core host however many workers fan out — the speedup cross-check
  is skipped and an explanatory note recorded instead, since the
  number would measure scheduler noise, not the runner.

* **BENCH_scale.json** — the scale family's grid (server-count sweep
  16 -> 256 plus the cross-fraction ramp) at bench stream length: lazy
  cluster build, streaming generation, per-cell setup/replay wall split
  and events/s — the trajectory for the large-cluster path.

Artifacts are plain JSON so successive runs diff cleanly; later perf
PRs are measured against the trajectory these files establish.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, List, Optional

from repro.runner.pool import resolve_jobs, run_tasks
from repro.runner.tasks import ReplayTask

KERNEL_FILE = "BENCH_kernel.json"
EXPERIMENTS_FILE = "BENCH_experiments.json"
SCALE_FILE = "BENCH_scale.json"

#: Ops per scale-bench cell.  The experiment family's full sweep runs
#: million-op cells; the bench trajectory wants minutes, not hours, so
#: it samples the same grid at a smaller stream length (still long
#: enough that per-cell events/s is code-dominated).
SCALE_BENCH_OPS = 50_000
SCALE_BENCH_OPS_QUICK = 10_000

#: Protocols timed by the kernel replay benchmark.
PROTOCOLS = ("ofs", "ofs-batched", "cx")

#: Canonical replay cell for the per-protocol timing.
BENCH_TRACE = "CTH"

#: Event-loop microbenchmark size (events popped, roughly).
LOOP_EVENTS = 400_000
LOOP_EVENTS_QUICK = 100_000


def _host() -> Dict[str, object]:
    from repro.sim import KERNEL_VARIANT

    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernel_variant": KERNEL_VARIANT,
    }


def bench_event_loop(quick: bool = False, rounds: int = 1) -> Dict[str, object]:
    """Raw kernel throughput: timeout churn with no protocol on top.

    100 generator processes ping-pong through ``sim.timeout`` until the
    target event count is reached — the same schedule/pop/resume cycle
    every replay event pays, isolated from file-system logic.  With
    ``rounds > 1`` the whole loop runs that many times and the fastest
    wall time is reported (best-of is the standard noise filter for
    throughput trajectories).
    """
    from repro.sim import Simulator

    target = LOOP_EVENTS_QUICK if quick else LOOP_EVENTS
    workers = 100
    # Each timeout costs two popped events (the Timeout, then the
    # process-resume event), so halve the per-worker iteration count.
    per_worker = max(1, target // (2 * workers))

    best_wall = float("inf")
    events = 0
    for _ in range(max(1, rounds)):
        sim = Simulator()

        def ticker():
            for _ in range(per_worker):
                yield sim.timeout(1.0)

        for _ in range(workers):
            sim.process(ticker())
        start = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - start
        events = sim.events_processed
        if wall < best_wall:
            best_wall = wall
    return {
        "events": events,
        "wall_seconds": best_wall,
        "events_per_sec": events / best_wall if best_wall > 0 else 0.0,
        "rounds": max(1, rounds),
    }


def bench_replays(
    quick: bool = False, seed: int = 0, rounds: int = 1
) -> Dict[str, dict]:
    """Canonical trace replay per protocol, timed end to end.

    Cells run in-process (``jobs=1``): these numbers are the
    single-core kernel trajectory, so no pool overhead may pollute
    them.  The first cell generates the trace streams; later protocols
    reuse them from the stream-plan cache exactly as an experiment row
    does, so ``wall_seconds`` is replay cost, not generation cost.
    With ``rounds > 1`` each cell is replayed that many times and its
    best (fastest) wall time is kept — the schedule is deterministic,
    so rounds differ only by host noise.
    """
    # Quick cells must still be long enough (~0.2-0.5s) that the
    # events/s ratio the perf-gate computes is dominated by code, not
    # by scheduler jitter — 0.002 gave ~50ms cells whose ratios swung
    # past the gate's fail line on an otherwise healthy host.
    scale = 0.01 if quick else None
    tasks = [
        ReplayTask(kind="trace", trace=BENCH_TRACE, protocol=protocol,
                   seed=seed, scale=scale)
        for protocol in PROTOCOLS
    ]
    # Warm the stream-plan cache so protocol 0 is not charged for
    # generating the streams the others reuse.
    run_tasks(tasks[:1], jobs=1)
    replays: Dict[str, dict] = {}
    for _ in range(max(1, rounds)):
        result = run_tasks(tasks, jobs=1)
        for outcome in result.outcomes:
            s = outcome.summary
            prev = replays.get(outcome.task.protocol)
            if prev is not None and prev["wall_seconds"] <= outcome.wall_time:
                continue
            replays[outcome.task.protocol] = {
                "trace": BENCH_TRACE,
                "wall_seconds": outcome.wall_time,
                "events": s.events_processed,
                "events_per_sec": (
                    s.events_processed / outcome.wall_time
                    if outcome.wall_time > 0 else 0.0
                ),
                "ops": s.total_ops,
                "ops_per_sec": (
                    s.total_ops / outcome.wall_time
                    if outcome.wall_time > 0 else 0.0
                ),
                "sim_replay_time": s.replay_time,
                "rounds": max(1, rounds),
            }
    return replays


#: Sampling rate for the always-on overhead measurement (1-in-N ops).
TRACING_SAMPLE = 64

#: Paired (untraced, traced) rounds; the median per-round ratio is the
#: overhead estimate, so it tolerates two noisy rounds in either
#: direction.
TRACING_REPEATS = 5

#: Replay scale of the overhead arms — the same in quick and full mode.
#: The overhead estimate is a *ratio*, not a throughput trajectory, so
#: the scale only needs to make each timed run long enough (~3s) that
#: scheduler jitter stays well under the overhead budget; it is
#: deliberately larger than both the quick replay cells (0.01) and the
#: canonical cell (0.02), whose ~1s runs are too short for a stable
#: ratio on a noisy host.  Scale 1.0 would replay the entire
#: multi-million-event trace ten times over.
TRACING_SCALE = 0.05


def bench_tracing_overhead(quick: bool = False, seed: int = 0) -> Dict[str, object]:
    """Cost of the always-on sampling tracer on the canonical cell.

    Replays CTH/cx twice per arm — tracing disabled vs a 1-in-N
    :class:`~repro.obs.tracer.SamplingTracer` — on identical streams
    and reports best-of-N walls plus the overhead fraction (the median
    of the per-round traced/untraced ratios).  The perf-gate enforces
    the always-on overhead budget against this number.  ``quick`` is
    accepted for call-shape symmetry with the other benches but does
    not change the measurement: both modes use :data:`TRACING_SCALE`.
    """
    from repro.experiments.common import build_trace_cluster
    from repro.obs import SamplingTracer
    from repro.workloads import TRACE_SPECS, TraceWorkload, replay_streams

    scale = TRACING_SCALE

    def one_run(traced: bool) -> Dict[str, float]:
        tracer = SamplingTracer(every=TRACING_SAMPLE) if traced else None
        cluster = build_trace_cluster(
            "cx", seed=seed, trace=traced, tracer=tracer
        )
        wl = TraceWorkload(
            TRACE_SPECS[BENCH_TRACE],
            scale=scale,
            seed=seed,
        )
        streams = wl.build(cluster, cluster.all_processes())
        start = time.perf_counter()
        result = replay_streams(cluster, streams)
        wall = time.perf_counter() - start
        return {"wall": wall, "events": cluster.sim.events_processed,
                "ops": result.total_ops}

    # Interleave the arms in paired rounds (U,T,U,T,...): the two runs
    # of a round share host conditions, so their ratio cancels the
    # drift that grouped runs would fold into the overhead number.
    # Per-round ratios still carry outliers in *both* directions —
    # scheduler preemption inflates a ratio, host frequency scaling can
    # deflate one — so the median over rounds is the intrinsic overhead
    # estimate the perf-gate budgets against.
    rounds = [(one_run(False), one_run(True)) for _ in range(TRACING_REPEATS)]
    ratios = sorted(t["wall"] / u["wall"] for u, t in rounds if u["wall"] > 0)
    if not ratios:
        overhead = 0.0
    else:
        mid = len(ratios) // 2
        median = (ratios[mid] if len(ratios) % 2
                  else (ratios[mid - 1] + ratios[mid]) / 2)
        overhead = median - 1.0
    untraced = min((u for u, _t in rounds), key=lambda r: r["wall"])
    traced_arm = min((t for _u, t in rounds), key=lambda r: r["wall"])
    return {
        "trace": BENCH_TRACE,
        "protocol": "cx",
        "sample": TRACING_SAMPLE,
        "repeats": TRACING_REPEATS,
        "untraced_wall_seconds": untraced["wall"],
        "traced_wall_seconds": traced_arm["wall"],
        "untraced_events_per_sec": (
            untraced["events"] / untraced["wall"]
            if untraced["wall"] > 0 else 0.0
        ),
        "traced_events_per_sec": (
            traced_arm["events"] / traced_arm["wall"]
            if traced_arm["wall"] > 0 else 0.0
        ),
        "events": untraced["events"],
        "overhead_frac": overhead,
    }


def bench_kernel(
    quick: bool = False, seed: int = 0, rounds: int = 1
) -> Dict[str, object]:
    return {
        "bench": "kernel",
        "quick": quick,
        "rounds": max(1, rounds),
        "host": _host(),
        "event_loop": bench_event_loop(quick=quick, rounds=rounds),
        "replays": bench_replays(quick=quick, seed=seed, rounds=rounds),
        "tracing": bench_tracing_overhead(quick=quick, seed=seed),
    }


def _fig5_tasks(traces: List[str], seed: int) -> List[ReplayTask]:
    return [
        ReplayTask(kind="trace", trace=trace, protocol=protocol, seed=seed)
        for trace in traces
        for protocol in PROTOCOLS
    ]


def bench_experiments(
    jobs: Optional[int] = None, quick: bool = False, seed: int = 0
) -> Dict[str, object]:
    """The fig5 grid, serial vs fanned out, in the same invocation."""
    from repro.workloads import TRACE_SPECS

    host = _host()
    cores = int(host["cpu_count"])  # type: ignore[arg-type]
    traces = ["CTH", "home2"] if quick else list(TRACE_SPECS)
    # The trajectory's reference configuration is 8 workers; an
    # explicit --jobs overrides it (0 = all cores).
    jobs = 8 if jobs is None else resolve_jobs(jobs)
    tasks = _fig5_tasks(traces, seed)

    serial = run_tasks(tasks, jobs=1)
    parallel = run_tasks(tasks, jobs=jobs)
    # What the pool can actually exploit: a 1-core host runs 8 workers
    # strictly interleaved, so "speedup" there measures scheduler noise,
    # not the runner.  Record the effective width next to the request
    # and skip the serial-vs-parallel cross-check when it is 1.
    effective_jobs = min(parallel.jobs, cores, len(tasks))

    identical = [
        (a.summary.protocol, a.summary.replay_time, a.summary.total_ops,
         a.summary.messages)
        == (b.summary.protocol, b.summary.replay_time, b.summary.total_ops,
            b.summary.messages)
        for a, b in zip(serial.outcomes, parallel.outcomes)
    ]
    payload: Dict[str, object] = {
        "bench": "experiments",
        "quick": quick,
        "host": host,
        "experiment": "fig5",
        "traces": traces,
        "cells": len(tasks),
        "jobs": parallel.jobs,
        "effective_jobs": effective_jobs,
        "fell_back_serial": parallel.fell_back_serial,
        "serial_wall_seconds": serial.wall_time,
        "parallel_wall_seconds": parallel.wall_time,
        "results_identical": all(identical),
        "cell_wall_seconds": {
            f"{o.task.trace}/{o.task.protocol}": o.wall_time
            for o in serial.outcomes
        },
    }
    if effective_jobs <= 1:
        payload["speedup"] = None
        payload["speedup_note"] = (
            f"speedup cross-check skipped: effective parallelism is "
            f"{effective_jobs} (jobs={parallel.jobs}, cores={cores}, "
            f"cells={len(tasks)}), so serial-vs-parallel wall time "
            "measures scheduler noise rather than the runner"
        )
    else:
        payload["speedup"] = (
            serial.wall_time / parallel.wall_time
            if parallel.wall_time > 0 else 0.0
        )
    return payload


def bench_scale(
    jobs: Optional[int] = None, quick: bool = False, seed: int = 0
) -> Dict[str, object]:
    """The scale family's grid at bench-trajectory stream length.

    Same cells as ``python -m repro scale`` (server-count sweep plus
    cross-fraction ramp, lazy clusters, streaming generation) but with
    :data:`SCALE_BENCH_OPS` ops per cell, so the artifact tracks the
    family's wall-clock trajectory without the full million-op cost.
    """
    from repro.experiments.scale import run_scale

    jobs = 8 if jobs is None else resolve_jobs(jobs)
    total_ops = SCALE_BENCH_OPS_QUICK if quick else SCALE_BENCH_OPS
    start = time.perf_counter()
    result = run_scale(seed=seed, jobs=jobs, quick=quick,
                       total_ops=total_ops)
    wall = time.perf_counter() - start
    return {
        "bench": "scale",
        "quick": quick,
        "host": _host(),
        "total_ops_per_cell": total_ops,
        "cells": len(result.rows),
        "jobs": jobs,
        "wall_seconds": wall,
        "rows": result.rows,
        "notes": result.notes,
    }


def render_bench(kernel: Dict[str, object],
                 experiments: Dict[str, object],
                 scale: Optional[Dict[str, object]] = None) -> str:
    lines = []
    loop = kernel["event_loop"]
    lines.append(
        f"kernel event loop: {loop['events']} events in "
        f"{loop['wall_seconds']:.2f}s = {loop['events_per_sec']:,.0f} events/s"
    )
    for protocol, r in kernel["replays"].items():
        lines.append(
            f"replay {r['trace']}/{protocol}: {r['wall_seconds']:.2f}s, "
            f"{r['events_per_sec']:,.0f} events/s, {r['ops_per_sec']:,.0f} ops/s"
        )
    tr = kernel.get("tracing")
    if tr:
        lines.append(
            f"tracing overhead ({tr['trace']}/{tr['protocol']}, "
            f"1-in-{tr['sample']} sampling, best of {tr['repeats']}): "
            f"untraced {tr['untraced_wall_seconds']:.2f}s, "
            f"traced {tr['traced_wall_seconds']:.2f}s = "
            f"{tr['overhead_frac'] * 100:+.1f}%"
        )
    speedup = experiments["speedup"]
    speedup_text = (
        f"speedup {speedup:.2f}x" if speedup is not None
        else "speedup n/a (1-core host)"
    )
    lines.append(
        f"fig5 grid ({experiments['cells']} cells, "
        f"{experiments['jobs']} jobs "
        f"[{experiments['effective_jobs']} effective], "
        f"{experiments['host']['cpu_count']} cores): "
        f"serial {experiments['serial_wall_seconds']:.1f}s, "
        f"parallel {experiments['parallel_wall_seconds']:.1f}s, "
        f"{speedup_text}, "
        f"identical={experiments['results_identical']}"
    )
    if scale:
        rows = scale["rows"]
        peak = max((r["events_per_sec"] for r in rows), default=0.0)
        max_servers = max((r["servers"] for r in rows), default=0)
        lines.append(
            f"scale grid ({scale['cells']} cells x "
            f"{scale['total_ops_per_cell']} ops, up to {max_servers} "
            f"servers, {scale['jobs']} jobs): "
            f"{scale['wall_seconds']:.1f}s wall, "
            f"peak {peak:,.0f} events/s"
        )
    return "\n".join(lines)


def run_bench(
    jobs: Optional[int] = None,
    quick: bool = False,
    seed: int = 0,
    out_dir: str = ".",
    rounds: int = 3,
) -> Dict[str, str]:
    """Run both benches, write the JSON artifacts, print the summary.

    The kernel bench runs ``rounds`` times per cell (default 3) and
    records the best of each — deterministic schedules mean rounds only
    differ by host noise, so best-of is the honest trajectory number.
    """
    kernel = bench_kernel(quick=quick, seed=seed, rounds=rounds)
    experiments = bench_experiments(jobs=jobs, quick=quick, seed=seed)
    scale = bench_scale(jobs=jobs, quick=quick, seed=seed)
    paths = {}
    for name, payload in ((KERNEL_FILE, kernel),
                          (EXPERIMENTS_FILE, experiments),
                          (SCALE_FILE, scale)):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths[name] = path
    print(render_bench(kernel, experiments, scale))
    print("wrote " + ", ".join(paths.values()))
    return paths
