"""Table V — recovery time as the valid-record footprint grows.

"we killed the processes on a server after it has accepted a specific
size of valid-records" — we run home2-style load with lazy commitment
disabled until the victim's log holds the target number of valid bytes,
crash it, recover, and time the recovery.  The paper's shape: 100x the
valid records costs < 3x the recovery time (5 KB -> 3 s ... 1000 KB ->
17 s), because resumption is batched.
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.cluster import FailureInjector
from repro.cluster.builder import ROOT_HANDLE, STALL_WINDOW, Cluster, Stalled
from repro.experiments.common import ExperimentResult, experiment_params
from repro.fs.ops import FileOperation, OpType
from repro.protocols import get_protocol

PAPER_ROWS = {5: 3, 10: 6, 50: 8, 100: 10, 500: 12, 1000: 17}

DEFAULT_SIZES_KB = (5, 10, 50, 100, 500, 1000)

#: Per-feeder operation budget: a CREATE appends >= ~100 bytes of
#: records on the victim, so even the 1000 KB row needs well under
#: this many ops per feeder.  Hitting it means the fill loop is not
#: making progress toward ``valid_bytes`` and the run must die loudly.
_FEEDER_OP_BUDGET = 200_000


def _creates(cluster, proc, i: int, parent: int, victim, target: int):
    """Process ``i``'s CREATEs, pulled while the victim's log is short.

    A stream that stops accumulating valid bytes must abort rather
    than spin for ever.
    """
    serial = 0
    while victim.wal.valid_bytes < target:
        serial += 1
        if serial > _FEEDER_OP_BUDGET:
            raise RuntimeError(
                f"table5 feeder p{i} exceeded {_FEEDER_OP_BUDGET} ops with "
                f"valid_bytes={victim.wal.valid_bytes} < target={target}"
            )
        h = cluster.placement.allocate_handle()
        yield FileOperation(OpType.CREATE, proc.new_op_id(), parent=parent,
                            name=f"p{i}-{serial}", target=h)


def _fill_and_crash(target_kb: int, num_servers: int = 8, seed: int = 0):
    """Load the cluster until server 0 holds ~target_kb of valid records,
    then crash and recover it."""
    params = experiment_params(commit_timeout=None, commit_threshold=None,
                               log_capacity=None)
    cluster = Cluster.build(num_servers=num_servers, num_clients=4,
                            protocol=get_protocol("cx"), params=params,
                            procs_per_client=8, seed=seed)
    d = cluster.preload_dir(ROOT_HANDLE, "recdir")
    victim = cluster.servers[0]
    target = target_kb * 1024
    cluster.drive({
        proc: _creates(cluster, proc, i, d, victim, target)
        for i, proc in enumerate(cluster.all_processes())
    })

    injector = FailureInjector(cluster)
    injector.crash_server(0)
    report_proc = injector.recover_server(0)
    sim = cluster.sim
    sim.run_until(report_proc, until=sim.now + STALL_WINDOW)
    if not report_proc.processed:
        raise Stalled(f"table5: server 0 still recovering at t={sim.now:.6f}")
    return report_proc.value


def run_table5(sizes_kb=DEFAULT_SIZES_KB, num_servers: int = 8, seed: int = 0):
    rows = []
    for kb in sizes_kb:
        report = _fill_and_crash(kb, num_servers=num_servers, seed=seed)
        rows.append(
            {
                "valid_kb": kb,
                "valid_bytes_at_crash": report.valid_bytes_at_crash,
                "recovery_time": report.duration,
                "paper_recovery_time": PAPER_ROWS.get(kb),
            }
        )
    text = render_table(
        ["Valid records (KB)", "Measured at crash (KB)", "Recovery (s)",
         "Paper recovery (s)"],
        [[r["valid_kb"], f"{r['valid_bytes_at_crash'] / 1024:.0f}",
          f"{r['recovery_time']:.1f}", r["paper_recovery_time"]] for r in rows],
        title="Table V — recovery time vs valid-record size",
    )
    return ExperimentResult("table5", text, rows)
