"""Heartbeat-based failure detection.

The paper's recovery section presumes one: "The recovery process for
node starts when the failure detection subsystem confirms a crash on
any node."  This module provides that subsystem: a monitor node pings
every metadata server periodically; after ``misses_to_declare``
consecutive missed heartbeats a server is *declared* crashed and the
``on_crash`` callback fires (typically wired to
:meth:`FailureInjector.recover_server` once the operator reboots the
node, or directly for automatic recovery — see
``examples/crash_recovery.py`` and the tests).

Heartbeat traffic is excluded from the protocol message statistics
(the paper's Table IV counts replay traffic only).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.net.message import MessageKind
from repro.net.network import Node
from repro.obs.registry import MetricsRegistry
from repro.sim import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster


class FailureDetector:
    """Periodic pinger with consecutive-miss crash declaration."""

    def __init__(
        self,
        cluster: "Cluster",
        interval: float = 0.5,
        misses_to_declare: int = 3,
        on_crash: Optional[Callable[[int], None]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if misses_to_declare < 1:
            raise ValueError("misses_to_declare must be >= 1")
        self.cluster = cluster
        self.interval = interval
        self.misses_to_declare = misses_to_declare
        self.on_crash = on_crash
        self.monitor_node = Node(cluster.sim, cluster.network, "fd-monitor")
        self.tracer = cluster.tracer
        #: The monitor's own metrics (servers own theirs): probe failures
        #: must be visible, not silently swallowed.
        self.metrics = MetricsRegistry("fd-monitor")
        self._m_probe_failed = self.metrics.counter("probe.failed")
        #: server index -> consecutive missed heartbeats
        self.misses: Dict[int, int] = {s.index: 0 for s in cluster.servers}
        #: servers currently declared crashed
        self.declared: set = set()
        self.declarations = 0
        self._procs: list[Process] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._procs:
            return
        for server in self.cluster.servers:
            self._procs.append(
                self.cluster.sim.process(self._watch(server.index))
            )

    def stop(self) -> None:
        for proc in self._procs:
            proc.kill()
        self._procs = []

    def clear(self, index: int) -> None:
        """Operator acknowledgment: the server was rebooted/recovered."""
        self.declared.discard(index)
        self.misses[index] = 0

    # -- monitoring ------------------------------------------------------------

    def _watch(self, index: int):
        sim = self.cluster.sim
        node_id = self.cluster.server_id(index)
        while True:
            yield sim.timeout(self.interval)
            try:
                yield self.monitor_node.request(
                    node_id, MessageKind.PING, {}, timeout=self.interval
                )
                self.misses[index] = 0
                continue
            except ConnectionError:
                # Dead-lettered: the target is down *right now* — exactly
                # the signal a failure detector exists to surface.
                reason = "connection-error"
            except TimeoutError:
                reason = "timeout"  # a late PONG lands unsolicited
            # Counter + tracer event: a failed probe is never silent.
            self._m_probe_failed.inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "probe.failed", "fd-monitor", cat="detector",
                    target=node_id, reason=reason,
                )
            self.misses[index] += 1
            if (
                self.misses[index] >= self.misses_to_declare
                and index not in self.declared
            ):
                self.declared.add(index)
                self.declarations += 1
                if self.on_crash is not None:
                    self.on_crash(index)
