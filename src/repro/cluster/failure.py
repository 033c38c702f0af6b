"""Failure injection: crash and reboot nodes mid-run.

A server crash loses all volatile state (inbox, every process the server
owns, pending protocol tables, KV overlay/dirty set) but keeps durable
state (the on-disk log and the flushed KV contents).  A client crash simply
silences the client — which is how the paper's SE baseline ends up with
orphan objects (the CLEAR message never goes out).

Protocol-specific recovery (Cx's log-driven resumption) is implemented
by the protocol role; :meth:`FailureInjector.recover_server` drives it
and reports the recovery duration (Table V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.net.message import MessageKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster


@dataclass
class RecoveryReport:
    """Timing breakdown of one server recovery."""

    server: int
    recovery_start: float
    recovery_end: float
    valid_bytes_at_crash: int = 0

    @property
    def duration(self) -> float:
        return self.recovery_end - self.recovery_start


class FailureInjector:
    """Crash/reboot driver for a cluster."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    # -- primitives ----------------------------------------------------------

    def crash_server(self, index: int) -> int:
        """Kill server ``index``; returns the log's valid bytes at crash.

        Crashing an already-crashed server raises: the double crash is
        always a driver bug (the dead process cannot die again), and
        silently re-running the crash path would re-drain queues and
        re-bump the node epoch against a node with no live traffic.
        """
        server = self.cluster.servers[index]
        if server.crashed:
            raise RuntimeError(f"server {index} is already crashed")
        valid = server.wal.valid_bytes
        server.crash()
        return valid

    def crash_client(self, index: int) -> None:
        self.cluster.clients[index].crash()

    def crash_server_at(self, index: int, at: float) -> None:
        """Schedule a server crash at virtual time ``at``."""

        def _crasher():
            delay = at - self.cluster.sim.now
            if delay > 0:
                yield self.cluster.sim.timeout(delay)
            if not self.cluster.servers[index].crashed:
                self.crash_server(index)

        self.cluster.sim.process(_crasher())

    def crash_server_at_event(self, index: int, at_event: int) -> None:
        """Crash server ``index`` when the processed-event count reaches
        ``at_event`` — the fault explorer's deterministic crash point.

        Uses the kernel's event-index probe, so the crash lands between
        two dispatches at the exact same index on every replay of the
        same schedule, independent of wall time or kernel variant.  A
        server that is already down at the probe instant is left alone
        (the schedule's recovery step will revive it).
        """

        def _crash_now() -> None:
            if not self.cluster.servers[index].crashed:
                self.crash_server(index)

        self.cluster.sim.arm_probe(at_event, _crash_now)

    # -- recovery ---------------------------------------------------------------

    def recover_server(self, index: int):
        """Process body: reboot ``index`` and run the protocol recovery.

        Returns a :class:`RecoveryReport`.  The role's ``recover``
        generator does the actual work (quiesce, log scan, resumption)
        as a process of the rebooted server, so a second crash kills the
        pass — the report then ends at that instant.
        Recovering a server that is not crashed raises immediately —
        rebooting a live server would wipe its volatile protocol state
        mid-operation, which no caller legitimately wants.
        """
        cluster = self.cluster
        server = cluster.servers[index]
        if not server.crashed:
            raise RuntimeError(f"server {index} is not crashed")

        def _recover():
            valid = server.wal.valid_bytes
            start = cluster.sim.now
            server.reboot()
            role = server.role
            if role is not None and hasattr(role, "recover"):
                try:
                    yield server.spawn(role.recover())
                except ConnectionError:
                    # Backstop: a peer died mid-recovery on a path the
                    # guarded RPC's callers don't cover.  The recovery
                    # pass is cut short — remaining work stays in the
                    # log for the next pass — but the file system must
                    # resume: release the peers and unquiesce.
                    server.metrics.counter("recovery.aborted").inc()
                    if server.tracer.enabled:
                        server.tracer.event(
                            "recovery.aborted", server.node_id,
                            cat="recovery",
                        )
                    for peer in cluster.servers:
                        if peer.index != index and not peer.crashed:
                            server.send(
                                peer.node_id, MessageKind.RECOVERY_END, {}
                            )
                    server.unquiesce()
            end = cluster.sim.now
            return RecoveryReport(
                server=index,
                recovery_start=start,
                recovery_end=end,
                valid_bytes_at_crash=valid,
            )

        return cluster.sim.process(_recover())
