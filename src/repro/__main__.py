"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro list
    python -m repro table2
    python -m repro fig5 --seed 1
    python -m repro all
    python -m repro fuzz --protocol ofs --schedules 100   # fault schedules

Observability::

    python -m repro trace fig5                 # traced replay -> Chrome trace
    python -m repro trace fig5 --out t.json    # choose the output file
    python -m repro fig5 --trace t.json        # same, flag form
    python -m repro trace fig5 --metrics       # print per-server metrics
    python -m repro analyze fig5 --protocol cx    # critical-path breakdown
    python -m repro analyze fig5 --protocol ofs --json breakdown.json
    python -m repro analyze fig5 --sample 16 --ring 4096 --flight f.jsonl

A traced run replays the experiment's canonical workload with the
tracer enabled, writes a Chrome trace-event JSON (open it in Perfetto:
https://ui.perfetto.dev), optionally a JSONL event dump, and validates
the protocol invariants from the event stream (exit code 1 if any
violation is found).

``analyze`` runs the same traced replay and then attributes every
operation's client-visible latency to protocol phases (execution, WAL
append, network, lock wait, commit, write-back) by walking its causal
span DAG — the per-protocol breakdown tables behind the paper's
"shorter critical path" claim.  ``--sample N`` switches to the
always-on 1-in-N sampling tracer, ``--ring K`` bounds the store to a
flight-recorder ring buffer, and ``--flight FILE`` dumps the recorder's
recent events (always for analyze; on violations or a crash for trace).

Each experiment prints the regenerated artifact; see EXPERIMENTS.md for
the paper-vs-measured discussion.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time


def _experiments():
    from repro import experiments as exp

    return {
        "table1": exp.run_table1,
        "table2": exp.run_table2,
        "table3": exp.run_table3,
        "table4": exp.run_table4,
        "table5": exp.run_table5,
        "fig4": exp.run_fig4,
        "fig5": exp.run_fig5,
        "fig6": exp.run_fig6,
        "fig7": exp.run_fig7,
        "fig8": exp.run_fig8,
        "fig9": exp.run_fig9,
    }


def _traced_task(args, parser, experiment):
    """The experiment's canonical traced task, with the CLI overrides."""
    from repro.experiments.tracing import traced_task

    try:
        return traced_task(experiment, trace=args.workload,
                           protocol=args.protocol, scale=args.scale,
                           seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))


def _run_traced(args, parser) -> int:
    from repro.experiments.tracing import run_traced_replay

    experiment = args.target if args.experiment == "trace" else args.experiment
    if experiment is None:
        parser.error("trace mode needs an experiment id, e.g. 'trace fig5'")
    task = _traced_task(args, parser, experiment)
    out = args.trace or args.out or f"trace_{experiment}.json"
    start = time.time()
    result = run_traced_replay(task, trace_file=out, jsonl_file=args.jsonl,
                               sample=args.sample, ring=args.ring,
                               flight_file=args.flight)
    elapsed = time.time() - start
    print(result.text)
    print(f"chrome trace written to {out}" + (
        f", jsonl to {args.jsonl}" if args.jsonl else ""))
    if args.metrics:
        print("\nper-server metrics:")
        for node, snap in result.summary.server_metrics.items():
            print(f"[{node}]")
            for name, value in snap.items():
                print(f"  {name}: {value}")
    print(f"[trace {experiment} regenerated in {elapsed:.1f}s wall]\n")
    return 1 if result.violations else 0


def _run_analyze(args, parser) -> int:
    from repro.experiments.tracing import run_analyze

    experiment = args.target or "fig5"
    task = _traced_task(args, parser, experiment)
    start = time.time()
    result = run_analyze(task, sample=args.sample, ring=args.ring,
                         json_file=args.json, flight_file=args.flight)
    elapsed = time.time() - start
    print(result.text)
    if args.json:
        print(f"phase-breakdown JSON written to {args.json}")
    print(f"[analyze {experiment} regenerated in {elapsed:.1f}s wall]\n")
    return 1 if result.replay.violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Cx paper's evaluation artifacts.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (table1..table5, fig4..fig9), 'scale', "
             "'trace <exp>', 'analyze <exp>', 'fuzz', 'all', or 'list'",
    )
    parser.add_argument(
        "target", nargs="?", default=None,
        help="experiment to trace or analyze (only with the 'trace' "
             "and 'analyze' commands)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="master RNG seed (default 0)")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes for experiment grids "
                             "(1 = serial, 0 = all cores; results are "
                             "identical for any value; default: serial)")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="run a traced replay and write the Chrome "
                             "trace-event JSON to FILE")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="output file for 'trace <exp>' "
                             "(default trace_<exp>.json)")
    parser.add_argument("--jsonl", metavar="FILE", default=None,
                        help="also dump the raw event stream as JSONL")
    parser.add_argument("--metrics", action="store_true",
                        help="print the per-server metrics registries "
                             "after a traced replay")
    parser.add_argument("--workload", default=None,
                        help="workload trace for a traced replay "
                             "(default: the experiment's canonical trace)")
    parser.add_argument("--scale", type=float, default=None,
                        help="replay scale override for a traced replay")
    parser.add_argument("--quick", action="store_true",
                        help="scale: smaller grid and stream length "
                             "(CI smoke configuration)")
    parser.add_argument("--out-dir", metavar="DIR", default=".",
                        help="scale/fuzz: directory for BENCH_scale.json "
                             "or the fuzz artifacts (default .)")
    parser.add_argument("--protocol", default=None,
                        help="trace/analyze/fuzz: protocol to replay "
                             "(default cx)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="analyze: also write the per-phase "
                             "breakdown as JSON to FILE")
    parser.add_argument("--sample", type=int, default=None, metavar="N",
                        help="trace/analyze: always-on mode, record a "
                             "deterministic 1-in-N of operations by op id")
    parser.add_argument("--ring", type=int, default=None, metavar="K",
                        help="trace/analyze: bound the tracer to a "
                             "flight-recorder ring of the last K events")
    parser.add_argument("--flight", metavar="FILE", default=None,
                        help="trace/analyze: JSONL dump of the flight "
                             "recorder's recent events (always written by "
                             "analyze; trace writes it on invariant "
                             "violations or a crashed replay)")
    parser.add_argument("--schedules", type=int, default=20, metavar="N",
                        help="fuzz: number of seeded fault schedules to "
                             "explore (default 20)")
    parser.add_argument("--shrink", action="store_true",
                        help="fuzz: ddmin-reduce every failing schedule "
                             "to a minimal fault list before writing its "
                             "minimal-repro artifact")
    parser.add_argument("--resume", metavar="FILE", default=None,
                        help="fuzz: checkpoint file; schedules already "
                             "recorded there are skipped and new results "
                             "appended (default <out-dir>/"
                             "fuzz_seed<seed>.jsonl)")
    args = parser.parse_args(argv)

    if args.experiment == "fuzz":
        from repro.faultfuzz import run_fuzz

        if args.schedules < 1:
            parser.error("--schedules must be >= 1")
        start = time.time()
        try:
            report = run_fuzz(
                seed=args.seed,
                schedules=args.schedules,
                jobs=1 if args.jobs is None else args.jobs,
                shrink=args.shrink,
                resume_path=args.resume,
                out_dir=args.out_dir,
                progress=print,
                protocol=args.protocol or "cx",
            )
        except ValueError as exc:  # unknown protocol, foreign resume file
            parser.error(str(exc))
        elapsed = time.time() - start
        print(report.text)
        print(f"[fuzz explored {args.schedules} schedules in "
              f"{elapsed:.1f}s wall]\n")
        return 1 if report.failures else 0

    if args.experiment == "scale":
        from repro.experiments.scale import run_scale

        start = time.time()
        result = run_scale(
            seed=args.seed,
            jobs=1 if args.jobs is None else args.jobs,
            quick=args.quick,
            out_dir=args.out_dir,
        )
        elapsed = time.time() - start
        print(result.text)
        if result.notes:
            print(f"\n{result.notes}")
        print(f"[scale regenerated in {elapsed:.1f}s wall; "
              f"BENCH_scale.json written to {args.out_dir}]\n")
        return 0

    if args.experiment == "analyze":
        return _run_analyze(args, parser)

    if args.experiment == "trace" or args.trace or args.metrics:
        return _run_traced(args, parser)

    registry = _experiments()
    if args.experiment == "list":
        from repro.protocols import PROTOCOL_NAMES

        print("available experiments:")
        for name in registry:
            print(f"  {name}")
        print("  scale          (streaming synthetic sweep 16->256 "
              "servers; --quick, --jobs, --out-dir)")
        print("  trace <exp>    (traced replay: fig5, fig8, table4)")
        print("  analyze <exp>  (critical-path phase breakdown, "
              f"--protocol {'|'.join(PROTOCOL_NAMES)})")
        print("  fuzz           (fault-schedule explorer; --protocol, "
              "--schedules, --shrink)")
        return 0

    if args.experiment == "all":
        names = list(registry)
    elif args.experiment in registry:
        names = [args.experiment]
    else:
        parser.error(
            f"unknown experiment {args.experiment!r}; try 'list'"
        )

    for name in names:
        runner = registry[name]
        # Spec tables take no seed; only grid experiments fan out.
        accepted = inspect.signature(runner).parameters
        jobs = 1 if args.jobs is None else args.jobs
        kwargs = {k: v for k, v in (("seed", args.seed), ("jobs", jobs))
                  if k in accepted}
        start = time.time()
        result = runner(**kwargs)
        elapsed = time.time() - start
        print(result.text)
        print(f"[{name} regenerated in {elapsed:.1f}s wall]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
