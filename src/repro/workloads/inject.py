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

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Optional

from repro.fs.ops import FileOperation, OpType
from repro.workloads.replay import replay_streams

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.client import ClientProcess

#: Name of the RNG stream the probes draw from (suffixed with the seed).
INJECT_RNG_STREAM = "fig8"
#: Post-replay settle window of the injection replay (the golden
#: ``fig8_home2_cx_inject0.12`` cell pins it).
INJECT_SETTLE = 120.0


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


def inject_probes(
    cluster: "Cluster",
    streams: Dict["ClientProcess", Iterable[FileOperation]],
    p_inject: float,
    seed: int = 0,
) -> Dict["ClientProcess", Iterator[FileOperation]]:
    """``streams`` with a probability-``p_inject`` probe before each op.

    Before an operation, a process may first look up an object that
    some pending (executed-but-uncommitted) operation touched — a
    guaranteed conflict that forces an immediate commitment onto the
    replay's critical path (Figure 8's injected lookups).  The probe is
    picked when the feeder pulls it, so it sees the live active tables.
    """
    rng = cluster.rngs.stream(f"{INJECT_RNG_STREAM}:{seed}")

    def probed(proc, ops):
        for op in ops:
            if p_inject > 0 and rng.random() < p_inject:
                probe = build_probe_op(cluster, proc, rng)
                if probe is not None:
                    yield probe
            yield op

    return {proc: probed(proc, ops) for proc, ops in streams.items()}


def replay_streams_with_injection(
    cluster: "Cluster",
    streams: Dict["ClientProcess", Iterable[FileOperation]],
    p_inject: float,
    seed: int = 0,
) -> Dict[str, float]:
    """Replay :func:`inject_probes` streams; the conflict-study measures."""
    r = replay_streams(cluster, inject_probes(cluster, streams, p_inject, seed),
                       settle=INJECT_SETTLE)
    return {"replay_time": r.replay_time, "total_ops": r.total_ops,
            "conflict_ratio": r.conflict_ratio, "messages": r.messages}
