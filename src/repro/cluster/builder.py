"""Cluster assembly: servers + clients + protocol + placement.

:class:`Cluster` is the top-level object of the public API::

    from repro import Cluster, SimParams
    from repro.protocols import CxProtocol

    cluster = Cluster.build(num_servers=8, num_clients=32,
                            protocol=CxProtocol(), params=SimParams())
    proc = cluster.client_process(0, 0)
    ... issue operations, run the simulator ...
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.metrics import MetricsCollector, StreamingMetricsCollector
from repro.cluster.client import ClientNode, ClientProcess
from repro.cluster.server import MetadataServer, server_node_id
from repro.fs.objects import DirEntry, FileType, Inode, dirent_key, inode_key
from repro.fs.ops import FileOperation, OpPlan, split_operation
from repro.fs.placement import PlacementPolicy
from repro.net.network import Network
from repro.obs.registry import merge_snapshots
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.params import SimParams
from repro.sim import Process, QueueDrained, RngRegistry, Simulator

#: Handle of the root directory.
ROOT_HANDLE = 0

#: Virtual seconds a closed-loop drive may pass with no client op
#: completing before it reports a stall.  The longest gap between two
#: completions measured in a healthy run is 13.5 s (an ``ok`` fuzz
#: schedule whose clients wait out a recovery; no ``benchmarks/``
#: replay exceeds 10 ms).  A Cx replay with a server crashed for good
#: would otherwise spin on its retry and trigger timers for ever.
STALL_WINDOW = 60.0


class Stalled(RuntimeError):
    """A closed-loop drive stopped making progress (see :meth:`Cluster.drive`)."""


class LazyServerList:
    """``cluster.servers`` for lazy clusters: builds servers on first touch.

    Looks like a list of ``num_servers`` servers, but a
    :class:`MetadataServer` (disk, KV store, WAL and their service
    processes) is only constructed — and its protocol role attached —
    the first time that index is accessed.  Iteration (metrics
    snapshots, quiesce) materializes everything, which is what those
    whole-cluster operations mean anyway.
    """

    def __init__(self, cluster: "Cluster", num_servers: int) -> None:
        self._cluster = cluster
        self._built: Dict[int, MetadataServer] = {}
        self._n = num_servers

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int) -> MetadataServer:
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(index)
        server = self._built.get(index)
        if server is None:
            server = self._built[index] = self._cluster._materialize_server(index)
        return server

    def __iter__(self):
        return (self[i] for i in range(self._n))

    @property
    def materialized(self) -> int:
        """How many servers have actually been constructed."""
        return len(self._built)


class Cluster:
    """A fully wired simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        params: SimParams,
        protocol,
        num_servers: int,
        num_clients: int,
        procs_per_client: int = 1,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        lazy_servers: bool = False,
        streaming_metrics: bool = False,
    ) -> None:
        from repro.protocols.base import Protocol  # avoid import cycle

        if not isinstance(protocol, Protocol):
            raise TypeError(f"protocol must be a Protocol, got {protocol!r}")
        self.sim = sim
        self.params = params
        self.protocol = protocol
        self.rngs = RngRegistry(seed)
        self.tracer = tracer or NULL_TRACER
        if tracer is not None:
            tracer.bind(sim)
        self.network = Network(sim, params, tracer=self.tracer)
        self.placement = PlacementPolicy(num_servers, self.rngs.stream("placement"))
        # Streaming mode folds per-op records into bounded counters and
        # a log-bucketed histogram — the million-op scale cells cannot
        # afford one OpRecord per operation.
        self.metrics = (
            StreamingMetricsCollector() if streaming_metrics
            else MetricsCollector()
        )
        if lazy_servers:
            # Scale-sweep mode: setup cost is O(servers touched), not
            # O(num_servers).  Server construction order then follows
            # first contact instead of index order, so schedules differ
            # from an eager build — which is why eager stays the
            # default and the golden suite only pins eager schedules.
            self.servers = LazyServerList(self, num_servers)
            self.network.node_factory = self._node_for_id
        else:
            self.servers: List[MetadataServer] = [
                MetadataServer(sim, self.network, params, i)
                for i in range(num_servers)
            ]
        self.clients: List[ClientNode] = [
            ClientNode(sim, self.network, c) for c in range(num_clients)
        ]
        self._processes: Dict[tuple, ClientProcess] = {}
        self.procs_per_client = procs_per_client
        #: When a feeder last saw a client op complete: the stall rule's clock.
        self.last_completion = 0.0
        if not lazy_servers:
            for server in self.servers:
                server.attach_role(protocol.make_role(server, self))

    def _materialize_server(self, index: int) -> MetadataServer:
        server = MetadataServer(self.sim, self.network, self.params, index)
        server.attach_role(self.protocol.make_role(server, self))
        return server

    def _node_for_id(self, node_id: str):
        """Network factory: first message to a lazy server builds it."""
        if node_id.startswith("mds"):
            try:
                index = int(node_id[3:])
            except ValueError:
                return None
            if 0 <= index < len(self.servers):
                return self.servers[index]
        return None

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        num_servers: int,
        num_clients: int,
        protocol,
        params: Optional[SimParams] = None,
        procs_per_client: int = 1,
        seed: int = 0,
        sim: Optional[Simulator] = None,
        tracer: Optional[Tracer] = None,
        trace: bool = False,
        lazy_servers: bool = False,
        streaming_metrics: bool = False,
    ) -> "Cluster":
        """Assemble a cluster.

        ``trace=True`` (or an explicit ``tracer``) enables end-to-end
        operation tracing; the tracer is reachable as
        ``cluster.tracer`` afterwards.  ``lazy_servers=True`` defers
        each metadata server's construction to its first touch (index
        access, preload, or first message), so setup cost follows the
        number of servers the workload actually contacts rather than
        ``num_servers`` — the mode the scale sweeps use.  Construction
        order then follows first contact, so schedules are not
        comparable with an eager build's.
        """
        params = params or SimParams()
        params = params.derived_copy(num_servers=num_servers)
        sim = sim or Simulator()
        if trace and tracer is None:
            tracer = Tracer(sim)
        return cls(
            sim,
            params,
            protocol,
            num_servers,
            num_clients,
            procs_per_client=procs_per_client,
            seed=seed,
            tracer=tracer,
            lazy_servers=lazy_servers,
            streaming_metrics=streaming_metrics,
        )

    # -- accessors --------------------------------------------------------------

    def server(self, index: int) -> MetadataServer:
        return self.servers[index]

    def server_id(self, index: int) -> str:
        return server_node_id(index)

    def client_process(self, client: int, proc: int) -> ClientProcess:
        """The (cached) process ``proc`` of client machine ``client``."""
        key = (client, proc)
        cp = self._processes.get(key)
        if cp is None:
            cp = ClientProcess(self, self.clients[client], proc)
            self._processes[key] = cp
        return cp

    def materialized_servers(self) -> List[MetadataServer]:
        """The servers that actually exist.

        Eager clusters: all of them.  Lazy clusters: only the servers
        built so far, in index order — iterating ``cluster.servers``
        would materialize the rest, which is exactly what quiesce and
        scale-cell summaries must avoid at 256 servers (an untouched
        server has no protocol state and no metrics worth reading).
        """
        servers = self.servers
        if isinstance(servers, LazyServerList):
            return [servers._built[i] for i in sorted(servers._built)]
        return list(servers)

    def metrics_snapshot(self, materialized_only: bool = False) -> Dict[str, dict]:
        """Per-server metrics registries as plain dicts, plus a merged
        ``cluster`` aggregate.

        ``materialized_only=True`` restricts a lazy cluster's snapshot
        to the servers the workload actually touched (no-op on eager
        clusters) — the scale cells' way of keeping a 256-server
        summary bounded.
        """
        servers = (
            self.materialized_servers() if materialized_only
            else list(self.servers)
        )
        out: Dict[str, dict] = {
            s.node_id: s.metrics.snapshot() for s in servers
        }
        out["cluster"] = merge_snapshots(s.metrics for s in servers)
        return out

    def all_processes(self) -> List[ClientProcess]:
        return [
            self.client_process(c, p)
            for c in range(len(self.clients))
            for p in range(self.procs_per_client)
        ]

    # -- planning -----------------------------------------------------------------

    def plan(self, op: FileOperation) -> OpPlan:
        return split_operation(op, self.placement)

    # -- namespace preloading --------------------------------------------------------

    def preload_dir(self, parent: int, name: str) -> int:
        """Instantly install a directory (setup only, durable, no IO time)."""
        handle = self.placement.allocate_handle()
        iserver = self.servers[self.placement.inode_server(handle)]
        iserver.kv._durable[inode_key(handle)] = Inode(
            handle, FileType.DIRECTORY, nlink=2
        )
        dserver = self.servers[self.placement.dirent_server(parent, name)]
        dserver.kv._durable[dirent_key(parent, name)] = DirEntry(
            parent, name, handle, is_dir=True
        )
        return handle

    def preload_file(self, parent: int, name: str,
                     server: Optional[int] = None) -> int:
        """Instantly install a regular file (setup only)."""
        handle = self.placement.allocate_handle(server)
        iserver = self.servers[self.placement.inode_server(handle)]
        iserver.kv._durable[inode_key(handle)] = Inode(handle, FileType.REGULAR, nlink=1)
        dserver = self.servers[self.placement.dirent_server(parent, name)]
        dserver.kv._durable[dirent_key(parent, name)] = DirEntry(parent, name, handle)
        return handle

    def preload_files(self, parent: int, names: Sequence[str]) -> List[int]:
        return [self.preload_file(parent, n) for n in names]

    # -- the closed loop ----------------------------------------------------------

    def run_ops(self, process: ClientProcess, ops: Iterable[FileOperation],
                think_time: float = 0.0) -> Process:
        """Start ``process`` on ``ops`` closed loop; returns the process.

        The one feeder: the next op is pulled (from a list or a
        generator) when the previous one completed, plus ``think_time``
        of application work.  The process's value is the list of
        :class:`OpResult` s.
        """
        return self.sim.process(self._feed(process, ops, think_time, []))

    def _feed(self, process, ops, think_time, results):
        """``results`` None drops each op's result as it completes."""
        sim = self.sim
        for op in ops:
            result = yield from process.perform(op)
            self.last_completion = sim.now
            if results is not None:
                results.append(result)
            if think_time > 0:
                yield sim.timeout(think_time)
        return results

    def drive(self, streams: Dict[ClientProcess, Iterable[FileOperation]],
              think_time: float = 0.0) -> None:
        """Feed every process its stream and run until all are done.

        Per-op results are folded into ``self.metrics`` and dropped, so
        memory does not grow with the streams (which may be generators).
        The stall rule: raises :class:`Stalled` once
        :data:`STALL_WINDOW` virtual seconds pass with no client op
        completed, or when the event queue drains first.
        """
        sim = self.sim
        done = sim.all_of([
            sim.process(self._feed(proc, ops, think_time, None))
            for proc, ops in streams.items()
        ])
        self.last_completion = sim.now
        while True:
            last = self.last_completion
            try:
                sim.run_until(done, until=last + STALL_WINDOW)
            except QueueDrained:
                why = "the event queue drained"
            else:
                if done.processed:
                    return
                if self.last_completion != last:
                    continue
                why = f"no client op completed for {STALL_WINDOW:g} s"
            raise Stalled(
                f"closed loop stalled at t={sim.now:.6f}: {why}; the last "
                f"client op completed at t={self.last_completion:.6f}"
            )

    def quiesce_protocol(self, timeout: float = 120.0) -> None:
        """Flush every role, then run ``timeout`` more virtual seconds.

        Long enough for lazy commitments and write-backs to complete
        before consistency checks.  The queue never drains — armed
        commit-trigger timers re-arm for ever — so the whole window is
        always run; once every role is idle the kernel replays the
        remaining ticks without dispatching them (same clock, same
        ``events_processed``), so the idle tail costs next to nothing.
        """
        # Only servers that exist can have protocol state to flush; on
        # a lazy cluster, touching the rest here would materialize all
        # 256 of them just to flush empty queues.
        for server in self.materialized_servers():
            if server.role is not None:
                server.role.flush_now()
        self.sim.run(until=self.sim.now + timeout)
