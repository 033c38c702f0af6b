"""Conflict injection for the sensitivity study (Figure 8).

The paper: "In order to emulate different conflict ratios, we injected
some lookup requests to add some immediate commitments for cross-server
operations in the home2 trace."

A replaying process picks a *currently pending* (executed-but-
uncommitted) cross-server operation off a random server's active-object
table and issues a lookup/stat on that object — a guaranteed conflict.
The achieved conflict ratio is then measured, not assumed.
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

    The returned lookup/stat is guaranteed to touch an executed-but-
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

