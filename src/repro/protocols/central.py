"""CE — Centrally-Execution protocol (Fig. 1(c), Ursa Minor style).

"When a cross-server operation is performed, all of the objects
involved in the operation are migrated to the same server.  The
operation is then performed locally on that single server by reusing
the server-side transaction techniques, such as journaling.  The
modified metadata objects are migrated back to the original server
after completing the execution."

The executing server is the coordinator (the dirent owner); the
participant's inode objects travel over the wire both ways, and both
servers journal the migration — the overhead [Sinnamohideen et al.,
ATC'10] measured at ~7.5% slowdown for 1% cross-server operations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Tuple

from repro.fs.namespace import NamespaceShard
from repro.fs.objects import inode_key
from repro.fs.ops import OpPlan
from repro.net.message import Message, MessageKind
from repro.protocols.base import Protocol, ServerRole
from repro.storage.wal import LogRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.server import MetadataServer


class _DictKV:
    """Read adapter letting a NamespaceShard plan against migrated objects."""

    def __init__(self, objects: Dict[Any, Any]) -> None:
        self._objects = objects

    def get(self, key: Any, default: Any = None) -> Any:
        return self._objects.get(key, default)


class CentralRole(ServerRole):
    """Executing-server and home-server sides of CE."""

    def handle(self, msg: Message) -> Generator:
        if msg.kind is MessageKind.REQ:
            plan = msg.payload["plan"]
            if plan.cross_server:
                yield from self._execute_centrally(msg, plan)
            else:
                yield from self.serve_local(msg, plan.coord_subop)
        elif msg.kind is MessageKind.MIGRATE:
            yield from self._migrate_out(msg)
        elif msg.kind is MessageKind.MIGRATE_BACK:
            yield from self._migrate_back(msg)
        else:  # pragma: no cover - protocol error
            self.reject(msg)

    # -- executing server ----------------------------------------------------

    def _execute_centrally(self, msg: Message, plan: OpPlan) -> Generator:
        coord_subop = plan.coord_subop
        part_subop = plan.part_subop
        op_id = coord_subop.op_id
        part_node = self.cluster.server_id(plan.participant)
        keys = [inode_key(part_subop.args["target"])]

        # 1. Migrate the participant's objects here.
        mig = yield self.server.request(
            part_node,
            MessageKind.MIGRATE,
            {"keys": keys, "txn": op_id},
        )
        objects: Dict[Any, Any] = dict(mig.payload["objects"])

        # 2. Execute both sub-ops locally under the local journal.
        yield self.sim.timeout_h(2 * self.params.cpu_subop)
        res_c = self.server.shard.execute(coord_subop, self.sim.now)
        view = NamespaceShard(_DictKV(objects), self.server.index)  # type: ignore[arg-type]
        res_p = view.execute(part_subop, self.sim.now)
        ok = res_c.ok and res_p.ok
        yield self.server.wal.append_h(
            LogRecord(op_id, "TXN", {"ok": ok}, size=self.params.log_record_size)
        )
        if ok:
            self.decided(msg)
            yield from self.write_through(res_c.updates)

        # 3. Migrate the (possibly updated) objects back.
        back_objects: List[Tuple[Any, Any]] = (
            res_p.updates if ok else [(k, objects.get(k)) for k in keys]
        )
        yield from self.deliver_decision(
            part_node,
            MessageKind.MIGRATE_BACK,
            {"objects": back_objects, "txn": op_id, "apply": ok},
            size=self.params.msg_base_size
            + self.params.kv_record_size * len(back_objects),
        )
        self.server.wal.prune_op(op_id)

        errno = res_c.errno if not res_c.ok else res_p.errno
        self.answer(
            msg, MessageKind.RESP,
            {"ok": ok, "errno": None if ok else errno, "value": None},
        )

    # -- home server ----------------------------------------------------------------

    def _migrate_out(self, msg: Message) -> Generator:
        keys = msg.payload["keys"]
        yield self.sim.timeout_h(self.params.kv_cpu * len(keys))
        # Journal the migration so a crash can re-home the objects.
        yield self.server.wal.append_h(
            LogRecord(
                msg.payload["txn"], "MIG-OUT", size=self.params.log_record_size
            )
        )
        objects = [(k, self.server.kv.get(k)) for k in keys]
        self.server.send_reply(
            msg,
            MessageKind.RESP,
            {"objects": objects},
            size=self.params.msg_base_size + self.params.kv_record_size * len(objects),
        )

    def _migrate_back(self, msg: Message) -> Generator:
        objects = msg.payload["objects"]
        if msg.payload["apply"]:
            yield from self.write_through(objects)
        yield self.server.wal.append_h(
            LogRecord(msg.payload["txn"], "MIG-IN", size=self.params.log_record_size)
        )
        self.server.wal.prune_op(msg.payload["txn"])
        self.server.send_reply(msg, MessageKind.ACK, {"txn": msg.payload["txn"]})


class CentralProtocol(Protocol):
    """Migrate-and-execute-locally baseline (Ursa Minor)."""

    name = "ce"

    def make_role(self, server: "MetadataServer", cluster: "Cluster") -> CentralRole:
        return CentralRole(server, cluster)
