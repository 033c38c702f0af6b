#!/usr/bin/env python3
"""The repo's benchmark: model time vs host time, layer by layer.

    python3 bench/run.py                      # all workloads, end to end
    python3 bench/run.py --trace 1            # all workloads, per layer
    python3 bench/run.py --workload flood-256 --seed 3
    python3 bench/run.py --selfcheck          # two runs must agree
    python3 bench/run.py --against OLD.json   # compare with an --out file

Each workload runs in a fresh single-threaded process.  ``model_*``
numbers are virtual time and repeat exactly for a seed; ``host_*``
numbers are this machine's time.  End-to-end metrics come from an
untraced run, per-layer metrics from a separate ``--trace 1`` run.  The
last line of a single-workload run is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the exit code is non-zero when
a correctness check fails.  See ``bench/README.md``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Timed repeats per run, whatever ``--seconds`` says.
MIN_REPEATS = 3
#: A timed set is disturbed when the process was descheduled or the
#: repeats disagree; it is then measured once more.
MIN_CPU_WALL = 0.9
MAX_REPEAT_SPREAD = 0.1
#: Ops sampled 1-in-N for the critical-path (V) run.
TRACE_EVERY = 16

P_LAYERS = ("sim", "net", "cluster", "core", "protocols", "storage", "fs",
            "obs", "analysis", "workloads", "faultfuzz")

#: critical-path phase -> per-layer metric (share of mean latency).
V_METRICS = {
    "network": "net.crit_network_share",
    "queue": "cluster.crit_queue_share",
    "commit": "core.crit_commit_share",
    "lock-wait": "core.crit_lock_wait_share",
    "wal-append": "storage.crit_wal_append_share",
    "write-back": "storage.crit_write_back_share",
    "execution": "fs.crit_execution_share",
}


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- one workload


class _Timer:
    """Wall and CPU seconds of a ``with`` body."""

    def __enter__(self):
        self._cpu = time.process_time()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._wall
        self.cpu = time.process_time() - self._cpu


def _timed(fn, *args):
    """``fn(*args)`` inside a kernel sprint, as ``execute_task`` runs a
    cell; returns ``(result, timer)``."""
    from repro.sim import kernel_sprint

    with kernel_sprint():
        with _Timer() as timer:
            result = fn(*args)
    return result, timer


def _host_block(w, seed):
    """One fresh set-up and timed host block: (outcome, timer, setup_s)."""
    with _Timer() as setup:
        state = w.host_setup(seed)
    raw, timer = _timed(w.host_run, state, seed)
    return w.host_outcome(state, raw), timer, setup.wall


def _model_block(w, seed, protocol, tracer=None):
    with _Timer() as setup:
        state = w.setup(seed, protocol, tracer)
    raw, timer = _timed(w.run, state, seed)
    return w.outcome(state, raw), timer, setup.wall


def _timed_set(w, seed, seconds):
    outcomes, timers, setups, walls = [], [], [], []
    # At least MIN_REPEATS; then another block only while more than
    # half a block of the --seconds budget is left.
    while (len(walls) < MIN_REPEATS
           or sum(walls) + statistics.median(walls) / 2 < seconds):
        outcome, timer, setup_s = _host_block(w, seed)
        outcomes.append(outcome)
        timers.append(timer)
        setups.append(setup_s)
        walls.append(timer.wall)
    return {
        "outcomes": outcomes, "walls": walls, "setups": setups,
        "spread": (max(walls) - min(walls)) / statistics.median(walls),
        "cpu_wall": sum(t.cpu for t in timers) / sum(walls),
    }


def _disturbed(tset) -> bool:
    return (tset["cpu_wall"] < MIN_CPU_WALL
            or tset["spread"] > MAX_REPEAT_SPREAD)


def _model_metrics(outcome) -> dict:
    """Virtual-time numbers of one model block (exact, repeatable)."""
    import numpy as np

    lat = np.sort(outcome.latencies)
    tail = max(1, -(-len(lat) // 100))
    p50, p99, p999 = (float(np.percentile(lat, q)) for q in (50, 99, 99.9))
    return {
        "ops_per_s": outcome.ops / outcome.window_s,
        "mean_ms": 1e3 * float(lat.mean()),
        "tail1_ms": 1e3 * float(lat[-tail:].mean()),
        "p50_ms": 1e3 * p50, "p99_ms": 1e3 * p99, "p999_ms": 1e3 * p999,
        "samples": len(lat),
    }


class _Report:
    """Collects one run's metrics, notes and verdict, then prints them."""

    def __init__(self, header: str) -> None:
        self.header = header
        self.metrics = {}
        self.exact = {}
        self.notes = []
        self.violations = []
        self.attempted = 0
        self.failed = 0

    def add(self, name, value, unit, exact=False):
        self.metrics[name] = {"value": value, "unit": unit}
        if exact:
            self.exact[name] = value

    def count(self, *outcomes):
        for o in outcomes:
            self.attempted += o.ops
            self.failed += o.failed
            self.violations.extend(o.violations)
            self.notes.extend("failed: " + f for f in o.findings)

    def result(self) -> dict:
        return {"correct": not self.violations, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}

    def emit(self) -> int:
        print(self.header)
        for name, m in self.metrics.items():
            print(f"  {name:<36} {m['value']:>16.6g}  {m['unit']}")
        for note in self.notes:
            print(f"  # {note}")
        for v in self.violations:
            print(f"  INCORRECT: {v}")
        share = self.failed / self.attempted if self.attempted else 0.0
        print(f"  failed_share {share:.6g} "
              f"({self.failed} of {self.attempted} ops)")
        print("exact " + json.dumps(self.exact, sort_keys=True))
        print(json.dumps(self.result()))
        return 0 if not self.violations else 1


def _measure_end_to_end(w, seed, seconds, import_s, report):
    import resource

    from workloads import REFERENCE

    w.warm_up(seed)
    tset = _timed_set(w, seed, seconds)
    if _disturbed(tset):
        again = _timed_set(w, seed, seconds)
        report.notes.append(
            f"disturbed (cpu/wall {tset['cpu_wall']:.2f}, spread "
            f"{tset['spread']:.3f}); measured again"
        )
        if again["spread"] < tset["spread"]:
            tset = again
    outcomes = tset["outcomes"]
    first = outcomes[0]
    if any(o.fingerprint() != first.fingerprint() for o in outcomes[1:]):
        report.violations.append(
            "timed repeats disagree on a model value or an exact count"
        )
    report.count(*outcomes)
    setup_s = import_s + statistics.median(tset["setups"])

    if w.separate_model_block:
        model, _timer, model_setup = _model_block(w, seed, "cx")
        report.count(model)
        setup_s += model_setup
    else:
        model = first
    ref, ref_timer, _setup = _model_block(w, seed, REFERENCE)
    report.count(ref)

    wall = statistics.median(tset["walls"])
    mm, rm = _model_metrics(model), _model_metrics(ref)
    report.add("model_ops_per_s", mm["ops_per_s"], "ops/s", exact=True)
    report.add("model_mean_ms", mm["mean_ms"], "ms", exact=True)
    report.add("model_tail1_ms", mm["tail1_ms"], "ms", exact=True)
    report.add("model_speedup", mm["ops_per_s"] / rm["ops_per_s"], "ratio",
               exact=True)
    report.add("host_ops_per_s", first.ops / wall, "ops/s")
    report.add("host_events_per_s", first.events / wall, "events/s")
    report.add("host_peak_rss_mb",
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "MiB")
    report.add("setup_s", setup_s, "s")
    report.exact.update(model.counts)
    report.exact.update({"host_ops": first.ops, "host_events": first.events})
    report.notes += [
        f"{len(tset['walls'])} timed repeats, walls "
        + " ".join(f"{x:.3f}" for x in tset["walls"])
        + f" s (spread {tset['spread']:.3f}, cpu/wall {tset['cpu_wall']:.2f})",
        f"model latency over {mm['samples']} ops: p50 {mm['p50_ms']:.4f} "
        f"p99 {mm['p99_ms']:.4f} p99.9 {mm['p999_ms']:.4f} ms",
        f"{REFERENCE} reference on the same streams: "
        f"{rm['ops_per_s']:.1f} ops/s model, mean {rm['mean_ms']:.4f} ms, "
        f"{ref.ops / ref_timer.wall:.1f} ops/s host (one sample)",
        f"import {import_s:.3f} s; set-ups "
        + " ".join(f"{x:.3f}" for x in tset["setups"]) + " s",
    ]


def _measure_per_layer(w, seed, sizes, report):
    import cProfile
    import pstats

    from repro.obs import SamplingTracer, analyze_trace, check_trace

    import layers
    from profile_rollup import rollup
    from workloads import (
        C_UNITS,
        FUZZ_OPS_PER_SCHEDULE,
        REFERENCE,
        CrashRecovery,
    )

    w.warm_up(seed)

    # C: exact counts, and the untraced walls the overheads are against.
    host, host_timer, _setup = _host_block(w, seed)
    if w.separate_model_block:
        model, model_timer, _setup = _model_block(w, seed, "cx")
        report.count(host, model)
    else:
        model, model_timer = host, host_timer
        report.count(host)
    for name, value in model.counts.items():
        report.add(name, value, C_UNITS[name], exact=True)
    mm = _model_metrics(model)
    report.add("model.p99_ms", mm["p99_ms"], "ms", exact=True)
    report.add("model.p999_ms", mm["p999_ms"], "ms", exact=True)

    # P: cProfile over the host block, rolled up by package.  C calls
    # are not profiled: their time stays in the calling function.
    profiler = cProfile.Profile(builtins=False)
    state = w.host_setup(seed)

    def profiled():
        profiler.enable()
        try:
            return w.host_run(state, seed)
        finally:
            profiler.disable()

    raw, prof_timer = _timed(profiled)
    profiled_outcome = w.host_outcome(state, raw)
    if profiled_outcome.fingerprint() != host.fingerprint():
        report.violations.append("profiled run diverged from the untraced run")
    buckets = rollup(pstats.Stats(profiler).stats)
    covered = sum(buckets.values())
    per_op = 1e6 / profiled_outcome.ops
    # Shares, not microseconds: a layer this workload never enters reads
    # 0 on every run, which is fine for a ratio and suspect for a time.
    for layer in P_LAYERS:
        report.add(f"{layer}.self_share", buckets.get(layer, 0.0) / covered,
                   "ratio")
    rest = covered - sum(buckets.get(layer, 0.0) for layer in P_LAYERS)
    report.add("host.other_self_share", rest / covered, "ratio")
    report.add("host.profiled_us_per_op", covered * per_op, "us")
    report.add("host.profile_overhead_x", prof_timer.wall / host_timer.wall,
               "ratio")
    report.add("host.cpu_wall_ratio", host_timer.cpu / host_timer.wall,
               "ratio")
    report.notes.append(
        f"profile: {covered:.3f} s of self time over {prof_timer.wall:.3f} s "
        f"profiled wall ({100 * covered / prof_timer.wall:.2f}%); us/op: "
        + " ".join(f"{layer} {buckets.get(layer, 0.0) * per_op:.2f}"
                   for layer in P_LAYERS)
        + f" other {rest * per_op:.2f}"
    )

    # V: virtual critical path of 1-in-N sampled ops of the model block.
    tracer = SamplingTracer(every=TRACE_EVERY)
    traced, traced_timer, _setup = _model_block(w, seed, "cx", tracer)
    if traced.fingerprint() != model.fingerprint():
        report.violations.append("sampled-tracer run diverged from the "
                                 "untraced run")
    report.violations.extend(
        f"trace: {v}" for v in check_trace(tracer, protocol="cx")
    )
    crit = analyze_trace(tracer, protocol="cx")
    error = crit.max_reconciliation_error()
    if error >= 1e-12:
        report.violations.append(
            f"critical-path reconciliation error {error:.3e} s"
        )
    phases = crit.phase_stats()
    for phase, name in V_METRICS.items():
        report.add(name, phases[phase]["share"], "ratio", exact=True)
    report.add("obs.span_events_per_op", len(tracer.events) / traced.ops,
               "count", exact=True)
    report.add("obs.tracer_overhead_frac",
               traced_timer.wall / model_timer.wall - 1.0, "ratio")
    report.notes.append(
        f"critical path over {len(crit.ops)} sampled ops (1 in "
        f"{TRACE_EVERY}): mean {1e3 * crit.end_to_end_stats()['mean']:.4f} ms"
        f" = " + " + ".join(
            f"{p} {1e3 * s['mean']:.4f}" for p, s in phases.items()
            if s["total"]
        ) + f"; reconciliation error {error:.1e} s"
    )

    # protocols: the reference the speed-up is measured against.
    ref, ref_timer, _setup = _model_block(w, seed, REFERENCE)
    report.count(ref)
    rm = _model_metrics(ref)
    report.add("protocols.ref_model_ops_per_s", rm["ops_per_s"], "ops/s",
               exact=True)
    report.add("protocols.ref_model_tail1_ms", rm["tail1_ms"], "ms",
               exact=True)
    report.add("protocols.ref_host_ops_per_s", ref.ops / ref_timer.wall,
               "ops/s")

    # I: each layer alone.  For faultfuzz that is a few certified
    # schedules through the crash-recovery host block.
    for name, (value, unit) in layers.run_all(sizes["layers_scale"]).items():
        report.add(name, value, unit)
    fuzz = CrashRecovery(
        dict(sizes, fuzz_schedules=sizes["layers_fuzz_schedules"]))
    blocks = [_host_block(fuzz, seed) for _ in range(layers.REPEATS)]
    outcome = blocks[0][0]
    report.count(outcome)
    schedules = outcome.ops / FUZZ_OPS_PER_SCHEDULE
    wall = statistics.median(timer.wall for _o, timer, _s in blocks)
    report.add("faultfuzz.schedules_per_s", schedules / wall, "1/s")
    report.add("faultfuzz.events_per_schedule", outcome.events / schedules,
               "events", exact=True)
    report.add("faultfuzz.faults_applied_per_schedule",
               outcome.counts["faults_applied"] / schedules, "count",
               exact=True)


def run_workload(name, seed, seconds, traced, smoke) -> int:
    import repro.sim
    import workloads

    import_s = time.perf_counter() - _PROCESS_START
    sizes = workloads.SIZES["smoke" if smoke else "full"]
    w = workloads.WORKLOADS[name](sizes)
    report = _Report(
        f"workload {name} seed {seed} "
        f"({'per layer, traced' if traced else 'end to end, untraced'}"
        f"{', smoke size' if smoke else ''}; "
        f"kernel {repro.sim.KERNEL_VARIANT})"
    )
    if traced:
        _measure_per_layer(w, seed, sizes, report)
    else:
        _measure_end_to_end(w, seed, seconds, import_s, report)
    return report.emit()


# -------------------------------------------------------------------- the suite


def _host_stamp() -> dict:
    import platform

    from repro.sim import KERNEL_VARIANT

    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(),
            "kernel_variant": KERNEL_VARIANT}


def run_suite(names, seed, seconds, traced, smoke) -> dict:
    """Each workload in a fresh process; returns the stamped results."""
    from workloads import SIZES

    results = {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(traced))] + (["--smoke"] if smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            raise SystemExit(f"bench: {name} exited {proc.returncode} "
                             "without a result")
        results[name] = json.loads(lines[-1])
        results[name]["exact"] = json.loads(lines[-2].split(" ", 1)[1])
    return {"host": _host_stamp(), "seed": seed, "seconds": seconds,
            "traced": traced, "sizes": SIZES["smoke" if smoke else "full"],
            "workloads": results}


def compare(a: dict, b: dict, label_a="first", label_b="second") -> int:
    """Print two suite results side by side; count disagreements.

    Exact values (``model_*`` and every count) must be identical; the
    second ``host_*`` and ``setup_s`` may not be worse than the first by
    more than the metric's bound in ``BENCHMARK.json``; the verdict and
    the failure count may not move.
    """
    if a["host"]["kernel_variant"] != b["host"]["kernel_variant"]:
        print("bench: refusing to compare kernel variants "
              f"{a['host']['kernel_variant']} and "
              f"{b['host']['kernel_variant']}", file=sys.stderr)
        return 2
    spec = {m["name"]: m for m in _benchmark_json()["end_to_end"]}
    bad = 0
    for name, ra in a["workloads"].items():
        rb = b["workloads"].get(name)
        if rb is None:
            continue
        print(f"{name}: {label_a} vs {label_b}")
        for key in sorted(set(ra["exact"]) | set(rb["exact"])):
            va, vb = ra["exact"].get(key), rb["exact"].get(key)
            if va != vb:
                bad += 1
                print(f"  {key:<36} {va!r} != {vb!r}  EXACT VALUE MOVED")
        for key, ma in ra["metrics"].items():
            mb = rb["metrics"].get(key)
            if mb is None or key in ra["exact"]:
                continue
            va, vb = ma["value"], mb["value"]
            line = f"  {key:<36} {va:>14.6g} {vb:>14.6g}  {ma['unit']}"
            m = spec.get(key)
            if m is not None:
                worse = (va - vb if m["better"] == "higher" else vb - va) / va
                if worse > m["bound"]:
                    bad += 1
                    line += f"  OUTSIDE {100 * m['bound']:.0f}%"
            print(line)
        if (rb["failed"], rb["correct"]) != (ra["failed"], ra["correct"]):
            bad += 1
            print(f"  failed {ra['failed']} -> {rb['failed']}, correct "
                  f"{ra['correct']} -> {rb['correct']}  VERDICT MOVED")
    print(f"{bad} disagreement(s)")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        help="one of BENCHMARK.json's workloads (default: "
                             "all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed host seconds per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; for bench/tests only")
    parser.add_argument("--out", metavar="FILE",
                        help="write the stamped suite results as JSON")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the untraced suite twice; they must agree")
    parser.add_argument("--against", metavar="FILE",
                        help="compare this run with an earlier --out file")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure ({SRC}/repro is missing)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    from workloads import WORKLOADS

    if args.workload not in (None, *WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    seconds = args.seconds
    if seconds is None:
        seconds = _benchmark_json()["run_seconds"]
    traced = bool(args.trace)

    if args.workload and not (args.out or args.selfcheck or args.against):
        return run_workload(args.workload, args.seed, seconds, traced,
                            args.smoke)

    names = [args.workload] if args.workload else list(WORKLOADS)
    suite = run_suite(names, args.seed, seconds, traced, args.smoke)
    status = 0
    if args.selfcheck:
        status = compare(
            suite, run_suite(names, args.seed, seconds, traced, args.smoke))
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            status = status or compare(json.load(fh), suite,
                                       args.against, "this run")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(suite, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if not all(r["correct"] for r in suite["workloads"].values()):
        status = status or 1
    return status


if __name__ == "__main__":
    sys.exit(main())
