"""Metadata server runtime.

A :class:`MetadataServer` owns one disk, one KV store (the BDB stand-in),
one operation log, and one namespace shard.  Its main loop pulls
messages off the inbox and dispatches an independent handler per
message, so a handler blocked on disk or on a conflict never stalls the
inbox.  The protocol in use is plugged in as a *role* object (see
:mod:`repro.protocols.base`).

Each handler runs on a :class:`_HandlerSlot`, a ``Process`` that drives
the role's generator directly (no wrapper generator or bookkeeping
closure per message) and skips the generator altogether when the role
serves the message inline.

The server *owns* its activities — handler slots and whatever a role
starts through :meth:`MetadataServer.spawn` — and a crash kills them
all before anything else, so no generator of a dead server ever runs
again (paper §III.D: a crashed server loses all volatile state).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Generator, Optional, Set

from repro.fs.namespace import NamespaceShard
from repro.net.message import Message, MessageKind
from repro.net.network import Network, Node
from repro.obs.registry import MetricsRegistry
from repro.params import SimParams
from repro.sim import Event, Process, Simulator
from repro.sim.resources import ResourceClosed
from repro.storage.disk import Disk
from repro.storage.kvstore import KVStore
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.base import ServerRole

#: Disk layout: the operation log occupies the first region, the KV
#: store (BDB file) the rest.  Keeping them apart models the real
#: seek between log appends and database write-back.
LOG_REGION_BASE = 0
KV_REGION_BASE = 256 * 1024 * 1024


def server_node_id(index: int) -> str:
    return f"mds{index}"


class _HandlerSlot(Process):
    """The driver of one message handler.

    A :class:`~repro.sim.Process` whose generator is made at dispatch
    time rather than at spawn: the bootstrap asks the role to
    :meth:`~repro.protocols.base.ServerRole.handle` the message and
    drives the generator it returns — or completes on the spot when the
    role served the message inline.  Event-for-event it is a ``Process``
    (urgent bootstrap, normal-priority completion event), so replay
    histories are those of a process per message.
    """

    __slots__ = ("server", "msg")

    #: Teardown signals: a peer crashed out from under the handler,
    #: which is not a failure of the simulation.
    QUIET_EXITS = (ResourceClosed, ConnectionError)

    def __init__(self, server: "MetadataServer", msg: Message) -> None:
        Event.__init__(self, server.sim)
        self.server = server
        self.msg = msg
        self.name = "handler"
        self._gen = None
        #: What the kernel holds for this slot (kill() detaches it by
        #: identity): the bootstrap now, _resume once a generator runs.
        self._resume_cb = self._start
        self._target = server.sim.init_h(self._resume_cb)

    def _start(self, h: int) -> None:
        """Bootstrap callback: run the handler at the dispatch instant."""
        server = self.server
        role = server.role
        msg = self.msg
        try:
            if "round" in msg.payload:  # a client request the slot serves
                gen = role.serve_request(msg)  # type: ignore[union-attr]
            elif msg.kind in (MessageKind.RENAME_PREP, MessageKind.RENAME_DECIDE):
                gen = role.handle_rename(msg)  # type: ignore[union-attr]
            else:
                gen = role.handle(msg)  # type: ignore[union-attr]
        except BaseException as exc:
            self._finish(exc)
            return
        if gen is None:
            self._finish(None)  # served inline
            return
        self._gen = gen
        self._resume_cb = self._resume
        # The bootstrap handle carries (H_OK, value=None), exactly what
        # the first generator resume needs.
        self._resume(h)


class MetadataServer(Node):
    """One metadata server (MDS) of the simulated file system."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        params: SimParams,
        index: int,
    ) -> None:
        super().__init__(sim, network, server_node_id(index))
        self.params = params
        self.index = index
        #: Observability: the cluster-wide tracer and this server's
        #: metrics registry (always on; the tracer defaults to the
        #: network's, which is the null tracer unless tracing was
        #: requested at cluster build time).
        self.tracer = network.tracer
        self.metrics = MetricsRegistry(self.node_id)
        self.disk = Disk(sim, params, name=f"disk{index}")
        self.kv = KVStore(sim, self.disk, params, base_offset=KV_REGION_BASE)
        self.wal = WriteAheadLog(
            sim,
            self.disk,
            params,
            base_offset=LOG_REGION_BASE,
            capacity=params.log_capacity,
            name=f"wal{index}",
            metrics=self.metrics,
            tracer=self.tracer,
            trace_node=self.node_id,
        )
        self.shard = NamespaceShard(self.kv, index)
        self.role: Optional["ServerRole"] = None
        #: True while the cluster is in the recovery state — client
        #: requests are buffered, not served (paper §III.D: "the whole
        #: file system stops responding new requests").
        self.quiesced = False
        self._quiesce_buffer: Deque[Message] = deque()
        #: Every live activity: handler slots and :meth:`spawn`-ed
        #: processes.  Finished ones drop out; :meth:`crash` kills the rest.
        self._owned: Set[Process] = set()
        self._loop: Optional[Process] = None

    # -- wiring ------------------------------------------------------------

    def attach_role(self, role: "ServerRole") -> None:
        self.role = role
        self.start()

    def start(self) -> None:
        if self._loop is None or self._loop.triggered:
            self._loop = self.sim.process(self._main_loop())
        if self.role is not None:
            self.role.start()

    # -- main loop -----------------------------------------------------------

    def _main_loop(self):
        # Everything loop-invariant is hoisted: this generator resumes
        # twice per served message, and the attribute chains add up.
        inbox_get_h = self.inbox.get_h
        timeout_h = self.sim.timeout_h
        cpu_dispatch = self.params.cpu_dispatch
        ping = MessageKind.PING
        req = MessageKind.REQ
        resolicit = MessageKind.RESOLICIT
        while True:
            try:
                msg = yield inbox_get_h()
            except ResourceClosed:
                return  # crashed; reboot() starts a fresh loop
            kind = msg.kind
            if kind is ping:
                # Liveness is independent of service: answer heartbeats
                # even while quiesced.
                self.send_reply(msg, MessageKind.PONG, {})
                continue
            if self.quiesced and (kind is req or kind is resolicit):
                # RESOLICITs join client requests in the quiesce buffer:
                # answering one from half-rebuilt recovery tables could
                # wrongly abort an op the log still knows about.
                self._quiesce_buffer.append(msg)
                continue
            yield timeout_h(cpu_dispatch)
            self._own(_HandlerSlot(self, msg))

    def spawn(self, gen: Generator) -> Process:
        """Run ``gen`` as an activity of this server: a crash kills it.
        Roles start every free-running generator (commitment batches,
        timers, recovery) here — one started on the bare simulator would
        outlive the crash."""
        return self._own(Process(self.sim, gen))

    def _own(self, proc: Process) -> Process:
        self._owned.add(proc)
        # Untrack once the completion event is processed.  The kernel
        # drops the callback list then, and _finish dropped _resume_cb,
        # so a finished process holds no reference to itself.
        proc.callbacks.append(self._owned.discard)  # type: ignore[union-attr]
        return proc

    # -- quiesce (recovery state) ----------------------------------------------

    def quiesce(self) -> None:
        self.quiesced = True

    def unquiesce(self) -> None:
        self.quiesced = False
        while self._quiesce_buffer:
            self.inbox.put(self._quiesce_buffer.popleft())

    # -- failure injection --------------------------------------------------------

    def crash(self) -> None:
        """Kill the server process: volatile state is lost, the log and
        the durable KV contents survive."""
        self.tracer.event("server.crash", self.node_id, cat="server")
        self.metrics.counter("server.crashes").inc()
        # First: once this loop ends nothing the server was doing can see
        # the torn state below — no code after a yield asks "did I crash?".
        for proc in list(self._owned):
            proc.kill()
        self._owned.clear()
        # A main loop blocked on the inbox returns when it closes below.
        # One that already took a message (paying its dispatch cost)
        # would hand it to a handler of the dead server, which could
        # answer it: kill it instead.
        if self._loop is not None and not self.inbox.waiting:
            self._loop.kill()
        super().crash()  # close inbox, fail pending RPCs
        self._quiesce_buffer.clear()
        self.kv.crash()
        self.wal.crash()
        if self.role is not None:
            self.role.on_crash()
        self._loop = None

    def reboot(self) -> None:
        """Restart after a crash; protocol recovery runs separately."""
        self.tracer.event("server.reboot", self.node_id, cat="server")
        super().reboot()
        self.start()
        if self.role is not None:
            self.role.on_reboot()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MetadataServer {self.node_id}>"
