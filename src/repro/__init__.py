"""repro — reproduction of *Cx: Concurrent Execution for the
Cross-Server Operations in a Distributed File System* (CLUSTER 2012).

The package provides:

* a deterministic discrete-event simulator (:mod:`repro.sim`);
* a simulated parallel file system metadata service in the OrangeFS
  mold (:mod:`repro.fs`, :mod:`repro.storage`, :mod:`repro.net`,
  :mod:`repro.cluster`);
* the Cx protocol (:mod:`repro.core`) and the paper's baselines
  (:mod:`repro.protocols`): 2PC, serial execution (OFS), OFS-batched,
  and central execution (Ursa Minor);
* the paper's workloads (:mod:`repro.workloads`) and every evaluation
  table/figure as a runnable experiment (:mod:`repro.experiments`);
* end-to-end observability (:mod:`repro.obs`): virtual-time tracing,
  per-server metrics, Perfetto-renderable exports, and a trace-driven
  protocol invariant checker.

Quickstart::

    from repro import Cluster, CxProtocol, SimParams
    from repro.fs import FileOperation, OpType
    from repro.cluster.builder import ROOT_HANDLE

    cluster = Cluster.build(num_servers=8, num_clients=4,
                            protocol=CxProtocol())
    home = cluster.preload_dir(ROOT_HANDLE, "home")
    proc = cluster.client_process(0, 0)
    op = FileOperation(OpType.CREATE, proc.new_op_id(), parent=home,
                       name="data.bin",
                       target=cluster.placement.allocate_handle())
    runner = cluster.run_ops(proc, [op])
    cluster.sim.run_until(runner)
    assert runner.value[0].ok
"""

from repro.params import DEFAULT_PARAMS, SimParams
from repro.cluster.builder import Cluster, ROOT_HANDLE
from repro.protocols import (
    CentralProtocol,
    PROTOCOL_NAMES,
    SerialBatchedProtocol,
    SerialProtocol,
    TwoPCProtocol,
    get_protocol,
)
from repro.core import CxProtocol
from repro.obs import (
    InvariantChecker,
    MetricsRegistry,
    Tracer,
    check_trace,
)

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "CentralProtocol",
    "CxProtocol",
    "DEFAULT_PARAMS",
    "InvariantChecker",
    "MetricsRegistry",
    "PROTOCOL_NAMES",
    "ROOT_HANDLE",
    "SerialBatchedProtocol",
    "SerialProtocol",
    "SimParams",
    "Tracer",
    "TwoPCProtocol",
    "__version__",
    "check_trace",
    "get_protocol",
]
