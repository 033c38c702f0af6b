"""The CxProtocol plug-in: wires the client driver and server role."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.cluster.client import ClientProcess
from repro.core.client import cx_client_perform
from repro.core.role import CxRole
from repro.fs.ops import OpPlan
from repro.protocols.base import Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.server import MetadataServer


class CxProtocol(Protocol):
    """Concurrent execution + lazy batched commitment (the paper's Cx)."""

    name = "cx"

    def make_role(self, server: "MetadataServer", cluster: "Cluster") -> CxRole:
        return CxRole(server, cluster)

    def client_perform(
        self, cluster: "Cluster", process: ClientProcess, plan: OpPlan,
        op_sid: Optional[int],
    ) -> Generator:
        return cx_client_perform(cluster, process, plan, op_sid)
