"""Schedule replay, oracle, and the fuzz driver.

One schedule = one private cluster replaying the fixed fuzz workload
(a grid of cross/same-server CREATEs from every client process, with
client retries armed) while a :class:`FaultScheduler` injects the
schedule's faults at their exact coordinates.  Afterwards the oracle
runs:

* the trace-driven :class:`~repro.obs.invariants.InvariantChecker`
  (atomic decisions, decided-before-prune, write-back, liveness with
  crash exemptions);
* whole-namespace referential integrity
  (:func:`~repro.analysis.consistency.check_namespace_invariants`);
* per-server WAL bookkeeping (``valid_bytes`` must equal the byte sum
  of the live record index).

Verdicts are pure functions of ``(seed, schedule index)``: no wall
clock enters any result field, so the same seed reproduces the same
report byte-for-byte on either kernel variant, and ``run_tasks`` keeps
results task-ordered when the grid fans across processes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.faultfuzz.schedule import (
    EVENT_KINDS,
    Fault,
    generate_schedule,
)

# -- fixed fuzz workload -----------------------------------------------------

NUM_SERVERS = 4
NUM_CLIENTS = 2
PROCS_PER_CLIENT = 2
OPS_PER_PROC = 12
#: Seconds a crashed server stays down before its scheduled recovery.
RECOVER_AFTER = 3.0
#: Virtual seconds faults stay armed *after* the client load completes:
#: the lazy-commitment and write-back traffic — the paper's dangerous
#: window — happens here, and crash points / message faults must be
#: able to land in it.
FAULT_SETTLE = 8.0
#: Faults stay armed from the first multiple of this many virtual
#: seconds at or after the load completes (then ``FAULT_SETTLE`` more).
DRIVE_CHUNK = 5.0
#: Post-workload settle window (lazy commitments, write-backs).
QUIESCE_TIMEOUT = 120.0


class FaultScheduler:
    """Arms one schedule on a live cluster and applies it as it runs.

    Event-indexed faults ride the kernel's single probe as a chain:
    the scheduler arms the earliest coordinate, and each firing applies
    every due action, then re-arms for the next.  Message faults ride
    ``Network.fault_hook`` keyed on a send counter.  At most one server
    is down (crashed or recovering) at a time — Cx recovery needs live
    peers — so a crash landing while another is down is skipped, and
    the skip is recorded in the applied-action log.
    """

    def __init__(self, cluster, faults: Sequence[Fault],
                 canary_handle: int = -1) -> None:
        from repro.cluster import FailureInjector

        self.cluster = cluster
        self.injector = FailureInjector(cluster)
        self.canary_handle = canary_handle
        #: Applied-action log (deterministic; part of the verdict).
        self.applied: List[str] = []
        #: (at, serial, fault) event-indexed actions; partitions expand
        #: into an "on" action at ``at`` and an "off" at ``until``.
        self._actions: List[Tuple[int, int, str, Fault]] = []
        self._msg_faults: Dict[int, Fault] = {}
        serial = 0
        for f in faults:
            if f.kind in EVENT_KINDS:
                self._actions.append((f.at, serial, f.kind, f))
                serial += 1
                if f.kind == "partition":
                    self._actions.append((f.until, serial, "heal", f))
                    serial += 1
            else:
                # Last write wins on a send-index collision (two faults
                # aimed at the same message) — deterministic either way.
                self._msg_faults[f.at] = f
        self._actions.sort(key=lambda t: (t[0], t[1]))
        self._next_action = 0
        self._sends = 0
        self._blocked: Set[Tuple[str, str]] = set()
        #: Server indices currently crashed or mid-recovery.
        self._down: Set[int] = set()

    # -- lifecycle -------------------------------------------------------

    def arm(self) -> None:
        self.cluster.network.fault_hook = self._hook
        self._arm_next_probe()

    def disarm(self) -> None:
        """Stop injecting: done with the load phase, settle cleanly."""
        self.cluster.sim.disarm_probe()
        self.cluster.network.fault_hook = None
        if self._blocked:
            self.applied.append("heal-final")
            self._blocked.clear()

    @property
    def down(self) -> Set[int]:
        return set(self._down)

    # -- probe chain -----------------------------------------------------

    def _arm_next_probe(self) -> None:
        if self._next_action < len(self._actions):
            at = self._actions[self._next_action][0]
            self.cluster.sim.arm_probe(at, self._fire)

    def _fire(self) -> None:
        sim = self.cluster.sim
        count = sim.events_processed
        actions = self._actions
        while (self._next_action < len(actions)
               and actions[self._next_action][0] <= count):
            _at, _serial, what, fault = actions[self._next_action]
            self._next_action += 1
            if what == "crash":
                self._apply_crash(fault)
            elif what == "partition":
                self._apply_partition(fault)
            elif what == "heal":
                self._apply_heal(fault)
            elif what == "corrupt":
                self._apply_corrupt(fault)
        self._arm_next_probe()

    def _apply_crash(self, fault: Fault) -> None:
        index = fault.a
        if self._down:
            self.applied.append(f"crash@{fault.at} s{index} skipped "
                                f"(server {sorted(self._down)[0]} is down)")
            return
        if self.cluster.servers[index].crashed:  # pragma: no cover
            self.applied.append(f"crash@{fault.at} s{index} skipped (down)")
            return
        self._down.add(index)
        self.injector.crash_server(index)
        self.applied.append(f"crash@{fault.at} s{index}")
        self.cluster.sim.process(self._recover_later(index))

    def _recover_later(self, index: int):
        sim = self.cluster.sim
        yield sim.timeout(RECOVER_AFTER)
        report = yield self.injector.recover_server(index)
        self._down.discard(index)
        self.applied.append(
            f"recovered s{index} at +{report.duration:.6f}s"
        )

    def _apply_partition(self, fault: Fault) -> None:
        from repro.cluster.server import server_node_id

        a = server_node_id(fault.a)
        b = server_node_id(fault.b)
        self._blocked.add((a, b))
        self._blocked.add((b, a))
        self.applied.append(
            f"partition@{fault.at} s{fault.a}<->s{fault.b} until {fault.until}"
        )

    def _apply_heal(self, fault: Fault) -> None:
        from repro.cluster.server import server_node_id

        a = server_node_id(fault.a)
        b = server_node_id(fault.b)
        self._blocked.discard((a, b))
        self._blocked.discard((b, a))
        self.applied.append(f"heal@{fault.until} s{fault.a}<->s{fault.b}")

    def _apply_corrupt(self, fault: Fault) -> None:
        """Canary fault: destroy the canary file's durable inode.

        Deliberately breaks referential integrity (dangling dirent) so
        the oracle → shrinker → minimal-repro pipeline has a known-bad
        schedule to reduce.  Never generated randomly.
        """
        from repro.fs.objects import inode_key

        h = self.canary_handle
        if h < 0:  # pragma: no cover - misconfigured canary
            self.applied.append(f"corrupt@{fault.at} skipped (no canary)")
            return
        server = self.cluster.servers[self.cluster.placement.inode_server(h)]
        server.kv._durable.pop(inode_key(h), None)
        server.kv._overlay.pop(inode_key(h), None)
        self.applied.append(f"corrupt@{fault.at} inode {h}")

    # -- message hook ----------------------------------------------------

    def _hook(self, msg):
        i = self._sends
        self._sends = i + 1
        if self._blocked and (msg.src, msg.dst) in self._blocked:
            return ("drop",)
        f = self._msg_faults.get(i)
        if f is None:
            return None
        if f.kind == "drop":
            self.applied.append(f"drop#{i} {msg.kind.value} "
                                f"{msg.src}->{msg.dst}")
            return ("drop",)
        if f.kind == "dup":
            self.applied.append(f"dup#{i} {msg.kind.value} "
                                f"{msg.src}->{msg.dst} +{f.extra}")
            return ("dup", f.extra)
        self.applied.append(f"delay#{i} {msg.kind.value} "
                            f"{msg.src}->{msg.dst} +{f.extra}")
        return ("delay", f.extra)


# -- one-schedule replay -----------------------------------------------------


@dataclass
class ScheduleResult:
    """Deterministic verdict of one schedule replay."""

    index: int
    seed: int
    faults: List[Dict[str, object]]
    verdict: str  # "ok" | "violation" | "stalled" | "crashed"
    violations: List[str] = field(default_factory=list)
    applied: List[str] = field(default_factory=list)
    events: int = 0
    vtime: float = 0.0
    error: str = ""

    @property
    def failed(self) -> bool:
        return self.verdict != "ok"

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "result", "index": self.index, "seed": self.seed,
            "faults": self.faults, "verdict": self.verdict,
            "violations": self.violations, "applied": self.applied,
            "events": self.events, "vtime": self.vtime, "error": self.error,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ScheduleResult":
        return cls(
            index=int(d["index"]), seed=int(d["seed"]),  # type: ignore[arg-type]
            faults=list(d["faults"]), verdict=str(d["verdict"]),  # type: ignore[arg-type]
            violations=list(d.get("violations", ())),  # type: ignore[arg-type]
            applied=list(d.get("applied", ())),  # type: ignore[arg-type]
            events=int(d.get("events", 0)),  # type: ignore[arg-type]
            vtime=float(d.get("vtime", 0.0)),  # type: ignore[arg-type]
            error=str(d.get("error", "")),
        )


def _build_fuzz_cluster(seed: int):
    from repro.cluster.builder import ROOT_HANDLE, Cluster
    from repro.params import SimParams
    from repro.protocols import get_protocol

    # The defaults the experiments run, except three timers that scale
    # with the 0.05 s commit trigger the tiny fuzz workload needs.
    params = SimParams(
        commit_timeout=0.05, vote_retry_timeout=0.5, recovery_rpc_timeout=0.5,
    )
    cluster = Cluster.build(
        num_servers=NUM_SERVERS, num_clients=NUM_CLIENTS,
        protocol=get_protocol("cx"), params=params,
        procs_per_client=PROCS_PER_CLIENT, seed=seed, trace=True,
    )
    workdir = cluster.preload_dir(ROOT_HANDLE, "fuzzdir")
    canary = cluster.preload_file(workdir, "canary")
    return cluster, workdir, canary


def run_schedule(faults: Sequence[Fault], seed: int,
                 index: int = 0) -> ScheduleResult:
    """Replay the fuzz workload under ``faults``; return the verdict.

    Pure function of ``(faults, seed)`` — ``index`` only labels the
    result.  Never raises for in-simulation failures: an unhandled
    exception inside the replay is itself a finding (verdict
    ``crashed``).
    """
    from repro.cluster.builder import Stalled

    fault_dicts = [f.to_dict() for f in faults]
    try:
        cluster, workdir, canary = _build_fuzz_cluster(seed)
        sim = cluster.sim
        scheduler = FaultScheduler(cluster, faults, canary_handle=canary)
        scheduler.arm()
        stalled = ""
        try:
            cluster.drive({
                proc: _creates(cluster, proc, i, workdir)
                for i, proc in enumerate(cluster.all_processes())
            })
        except Stalled as exc:
            stalled = str(exc)
        if not stalled:
            # Keep the schedule armed through the commitment/write-back
            # tail so event-indexed faults can land after the clients
            # already saw their completions: from the DRIVE_CHUNK
            # boundary after the load, not from its last completion,
            # so every tail fault keeps its coordinates.
            settle_from = math.ceil(sim.now / DRIVE_CHUNK) * DRIVE_CHUNK
            sim.run(until=settle_from + FAULT_SETTLE)
        scheduler.disarm()

        # Let in-flight recoveries finish, force any the probe horizon
        # cut off, then settle the protocol for the oracle.
        deadline = sim.now + 4 * RECOVER_AFTER
        while scheduler.down and sim.now < deadline:
            sim.run(until=sim.now + 1.0)
        for idx in sorted(scheduler.down):
            if cluster.servers[idx].crashed:
                rp = scheduler.injector.recover_server(idx)
                sim.run(until=sim.now + QUIESCE_TIMEOUT)
                if not rp.processed:
                    stalled = f"s{idx} still recovering at t={sim.now:.6f}"
        cluster.quiesce_protocol(timeout=QUIESCE_TIMEOUT)

        violations = _oracle(cluster, workdir)
        if stalled:
            verdict = "stalled"
        elif violations:
            verdict = "violation"
        else:
            verdict = "ok"
        return ScheduleResult(
            index=index, seed=seed, faults=fault_dicts, verdict=verdict,
            violations=violations, applied=scheduler.applied,
            events=sim.events_processed, vtime=round(sim.now, 9),
            error=stalled,
        )
    except Exception as exc:
        return ScheduleResult(
            index=index, seed=seed, faults=fault_dicts, verdict="crashed",
            # repr only — tracebacks differ between kernel variants and
            # would break byte-identical verdicts.
            error=repr(exc),
        )


def _creates(cluster, proc, i: int, workdir: int):
    """Process ``i``'s share of the fuzz workload: OPS_PER_PROC CREATEs."""
    from repro.fs.ops import FileOperation, OpType

    for k in range(OPS_PER_PROC):
        h = cluster.placement.allocate_handle()
        yield FileOperation(OpType.CREATE, proc.new_op_id(), parent=workdir,
                            name=f"f{i}-{k}", target=h)


def _transient_targets(cluster) -> Set[int]:
    """Inode handles of operations still in flight at oracle time.

    Ops left pending (mid-retry toward a peer) or parked (decision
    awaiting re-delivery) are allowed to have disagreeing halves — the
    protocol has not resolved them yet.  Their breaks classify as
    ``transient-*`` and don't fail the schedule.
    """
    targets: Set[int] = set()
    for server in cluster.servers:
        role = server.role
        for pend_map in (
            getattr(role, "pending", None),
            getattr(getattr(role, "commit_mgr", None), "parked", None),
        ):
            if not pend_map:
                continue
            for pend in pend_map.values():
                t = pend.subop.args.get("target")
                if t is not None:
                    targets.add(t)
    return targets


def _oracle(cluster, workdir: int) -> List[str]:
    """All post-conditions; returns deterministic violation strings."""
    from repro.analysis.consistency import (
        check_namespace_invariants,
        is_transient,
    )
    from repro.obs.invariants import check_trace

    violations: List[str] = []
    for v in check_trace(cluster.tracer, liveness=True, protocol="cx"):
        violations.append(str(v))
    for v in check_namespace_invariants(
        cluster, known_dirs=[workdir],
        transient_targets=_transient_targets(cluster),
    ):
        if is_transient(v):
            continue  # pending-window break; an in-flight op owns it
        violations.append(str(v))
    for server in cluster.servers:
        wal = server.wal
        expect = sum(
            r.size for recs in wal._index.values() for r in recs
        )
        if wal.valid_bytes != expect:
            violations.append(
                f"[wal-accounting] node={server.node_id}: valid_bytes="
                f"{wal.valid_bytes} but indexed records sum to {expect}"
            )
    return violations


# -- grid fan-out ------------------------------------------------------------


@dataclass(frozen=True)
class FuzzTask:
    """Picklable spec for one schedule replay (runner fan-out unit)."""

    seed: int
    index: int
    faults: Tuple[Fault, ...]


def execute_fuzz_task(task: FuzzTask) -> ScheduleResult:
    """Worker entry point (module-level: must be picklable)."""
    return run_schedule(list(task.faults), seed=task.seed, index=task.index)


@dataclass
class FuzzReport:
    """Everything one ``python -m repro fuzz`` invocation produced."""

    seed: int
    schedules: int
    results: List[ScheduleResult]
    shrunk: Dict[int, List[Fault]] = field(default_factory=dict)
    artifacts: List[str] = field(default_factory=list)
    resume_path: str = ""
    resumed: int = 0

    @property
    def failures(self) -> List[ScheduleResult]:
        return [r for r in self.results if r.failed]

    @property
    def text(self) -> str:
        lines = [
            f"fuzz: seed={self.seed} schedules={self.schedules} "
            f"(resumed {self.resumed}) -> "
            f"{len(self.failures)} failing"
        ]
        for r in self.failures:
            lines.append(
                f"  schedule {r.index}: {r.verdict} "
                f"({len(r.violations)} violations, "
                f"{len(r.faults)} faults"
                + (f", shrunk to {len(self.shrunk[r.index])}"
                   if r.index in self.shrunk else "")
                + ")"
            )
            for v in r.violations[:4]:
                lines.append(f"    {v}")
            if r.error:
                lines.append(f"    {r.error}")
        if not self.failures:
            lines.append("  all schedules clean")
        for a in self.artifacts:
            lines.append(f"  minimal repro: {a}")
        if self.resume_path:
            lines.append(f"  resume file: {self.resume_path}")
        return "\n".join(lines)


def _load_resume(path: str, seed: int) -> Dict[int, ScheduleResult]:
    """Completed results from a previous run's resume file."""
    results: Dict[int, ScheduleResult] = {}
    if not os.path.exists(path):
        return results
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            if d.get("type") == "header":
                if int(d.get("seed", seed)) != seed:
                    raise ValueError(
                        f"resume file {path} was produced with "
                        f"seed={d.get('seed')}, not {seed}"
                    )
            elif d.get("type") == "result":
                r = ScheduleResult.from_dict(d)
                results[r.index] = r
    return results


def _write_resume(path: str, seed: int,
                  results: Sequence[ScheduleResult]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(
            {"type": "header", "seed": seed, "version": 1,
             "num_servers": NUM_SERVERS}, sort_keys=True) + "\n")
        for r in sorted(results, key=lambda r: r.index):
            fh.write(json.dumps(r.to_dict(), sort_keys=True) + "\n")
    os.replace(tmp, path)


def run_fuzz(
    seed: int = 0,
    schedules: int = 20,
    jobs: Optional[int] = 1,
    shrink: bool = False,
    resume_path: Optional[str] = None,
    out_dir: str = ".",
    extra_schedules: Optional[Dict[int, List[Fault]]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Explore ``schedules`` seeded fault schedules; report and persist.

    Schedules are generated by :func:`generate_schedule` (pure function
    of ``seed`` and index), fanned across ``jobs`` worker processes
    with task-ordered results, and checkpointed to ``resume_path``
    (default ``<out_dir>/fuzz_seed<seed>.jsonl``) after every batch —
    re-running with ``--resume`` skips every schedule the file already
    holds.  Failing schedules always produce a minimal-repro JSONL
    artifact; with ``shrink=True`` the fault list is first reduced by
    :func:`~repro.faultfuzz.shrink.shrink_schedule`.

    ``extra_schedules`` maps index -> explicit fault list, overriding
    the generator for those indices (the known-bad canary tests use
    this; the CLI does not expose it).
    """
    from repro.faultfuzz.shrink import shrink_schedule
    from repro.obs.minrepro import write_minrepro
    from repro.runner.pool import run_tasks

    os.makedirs(out_dir, exist_ok=True)
    if resume_path is None:
        resume_path = os.path.join(out_dir, f"fuzz_seed{seed}.jsonl")
    done = _load_resume(resume_path, seed)
    done = {i: r for i, r in done.items() if i < schedules}

    plans: Dict[int, List[Fault]] = {}
    for i in range(schedules):
        if i in done:
            continue
        if extra_schedules and i in extra_schedules:
            plans[i] = list(extra_schedules[i])
        else:
            plans[i] = generate_schedule(seed, i, NUM_SERVERS)

    tasks = [FuzzTask(seed=seed, index=i, faults=tuple(f))
             for i, f in sorted(plans.items())]
    if progress:
        progress(f"fuzz: {len(tasks)} schedules to run "
                 f"({len(done)} resumed from {resume_path})")
    outcomes = run_tasks(tasks, jobs=jobs, raise_on_error=False,
                         fn=execute_fuzz_task) if tasks else None

    results: Dict[int, ScheduleResult] = dict(done)
    if outcomes is not None:
        for outcome in outcomes.outcomes:
            task = outcome.task
            if outcome.summary is not None:
                results[task.index] = outcome.summary
            else:
                # Worker died outside run_schedule's own catch — an
                # explorer bug, surfaced as a crashed schedule.
                results[task.index] = ScheduleResult(
                    index=task.index, seed=seed,
                    faults=[f.to_dict() for f in task.faults],
                    verdict="crashed",
                    error=(outcome.error or "worker failed").strip()
                    .splitlines()[-1],
                )
    ordered = [results[i] for i in sorted(results)]
    _write_resume(resume_path, seed, ordered)

    report = FuzzReport(
        seed=seed, schedules=schedules, results=ordered,
        resume_path=resume_path, resumed=len(done),
    )
    for r in report.failures:
        shrunk_faults: Optional[List[Fault]] = None
        if shrink:
            faults = [Fault.from_dict(d) for d in r.faults]
            if progress:
                progress(f"shrinking schedule {r.index} "
                         f"({len(faults)} faults)")
            shrunk_faults = shrink_schedule(faults, seed=seed,
                                            index=r.index)
            report.shrunk[r.index] = shrunk_faults
        artifact = os.path.join(
            out_dir, f"minrepro_seed{seed}_schedule{r.index}.jsonl"
        )
        write_minrepro(artifact, r, shrunk=(
            [f.to_dict() for f in shrunk_faults]
            if shrunk_faults is not None else None
        ))
        report.artifacts.append(artifact)
    return report


__all__ = [
    "FaultScheduler",
    "FuzzReport",
    "FuzzTask",
    "ScheduleResult",
    "execute_fuzz_task",
    "run_fuzz",
    "run_schedule",
]
