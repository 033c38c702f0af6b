"""Conflict injection for the sensitivity study (Figure 8).

The paper: "In order to emulate different conflict ratios, we injected
some lookup requests to add some immediate commitments for cross-server
operations in the home2 trace."

The injector runs alongside a replay: at a configurable rate it picks a
*currently pending* (executed-but-uncommitted) cross-server operation
off a random server's active-object table and issues a lookup/stat on
that object from a dedicated probe process — a guaranteed conflict,
which forces an immediate commitment exactly like the paper's injected
lookups.  The achieved conflict ratio is then measured, not assumed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.fs.ops import FileOperation, OpType
from repro.workloads.replay import deadlock_reported

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.client import ClientProcess


def build_probe_op(cluster: "Cluster", proc: "ClientProcess", rng) -> Optional[FileOperation]:
    """A read targeting some currently-active (pending) object.

    Shared by the runtime injector and Figure 8's inline injection: the
    returned lookup/stat is guaranteed to touch an executed-but-
    uncommitted operation's object, raising a conflict.
    """
    servers = list(cluster.servers)
    rng.shuffle(servers)
    for server in servers:
        role = getattr(server, "role", None)
        active = getattr(role, "active", None)
        if active is None:
            return None  # protocol without active objects (baselines)
        for key in active._holder:
            if key[0] == "d":
                _tag, parent, name = key
                return FileOperation(OpType.LOOKUP, proc.new_op_id(),
                                     parent=parent, name=name)
            if key[0] == "i":
                return FileOperation(OpType.STAT, proc.new_op_id(),
                                     target=key[1])
    return None


def replay_streams_with_injection(
    cluster: "Cluster",
    streams: Dict["ClientProcess", List[FileOperation]],
    p_inject: float,
    seed: int = 0,
    rng_stream: str = "fig8",
) -> Dict[str, float]:
    """Replay ``streams`` with probability-``p_inject`` probing reads.

    Before an operation, a process may first look up an object that
    some pending (executed-but-uncommitted) operation touched — a
    guaranteed conflict that forces an immediate commitment onto the
    replay's critical path (Figure 8's injected lookups).  Returns the
    measurements the conflict-ratio study needs.
    """
    sim = cluster.sim
    cluster.network.stats.reset()
    rng = cluster.rngs.stream(f"{rng_stream}:{seed}")

    def runner(proc, ops):
        for op in ops:
            if p_inject > 0 and rng.random() < p_inject:
                probe = build_probe_op(cluster, proc, rng)
                if probe is not None:
                    yield from proc.perform(probe)
            yield from proc.perform(op)

    runners = [sim.process(runner(proc, ops)) for proc, ops in streams.items()]
    done = sim.all_of(runners)
    start = sim.now
    with deadlock_reported("injection replay"):
        sim.run_until(done)
    replay_time = sim.now - start
    cluster.quiesce_protocol()
    m = cluster.metrics
    return {
        "replay_time": replay_time,
        "total_ops": m.total_ops,
        "conflict_ratio": m.conflict_ratio,
        "messages": cluster.network.stats.total,
    }


class ConflictInjector:
    """Issues conflicting lookups at a given rate during a replay."""

    def __init__(
        self,
        cluster: "Cluster",
        probe_process: "ClientProcess",
        rate_per_second: float,
        seed: int = 0,
        concurrency: int = 0,
    ) -> None:
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        self.cluster = cluster
        self.probe_process = probe_process
        # A probe can take ~1 ms when it conflicts (it waits out the
        # immediate commitment), so one sequential prober saturates near
        # 1k/s; spread the target rate over enough parallel workers.
        if concurrency <= 0:
            concurrency = max(1, int(rate_per_second * 2e-3))
        self.concurrency = concurrency
        self.period = concurrency / rate_per_second
        self.rng = cluster.rngs.stream(f"inject:{seed}")
        self.probes_sent = 0
        self.probes_hit = 0
        self._procs: list = []

    def start(self) -> None:
        if self._procs:
            return
        for _ in range(self.concurrency):
            self._procs.append(self.cluster.sim.process(self._loop()))

    def stop(self) -> None:
        for proc in self._procs:
            proc.kill()
        self._procs = []

    # -- probing ------------------------------------------------------------

    def _pick_active_target(self) -> Optional[FileOperation]:
        """Find a pending cross-server op and build a probing read."""
        return build_probe_op(self.cluster, self.probe_process, self.rng)

    def _loop(self):
        sim = self.cluster.sim
        while True:
            yield sim.timeout(self.period)
            op = self._pick_active_target()
            if op is None:
                continue
            self.probes_sent += 1
            result = yield from self.probe_process.perform(op)
            if result.conflicted:
                self.probes_hit += 1
