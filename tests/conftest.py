"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import Cluster, SimParams
from repro.cluster.builder import ROOT_HANDLE
from repro.fs.ops import FileOperation, OpType
from repro.obs import InvariantChecker
from repro.obs.invariants import CX_CONTRACT
from repro.protocols import get_protocol
from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def params() -> SimParams:
    return SimParams()


@pytest.fixture
def fast_commit_params() -> SimParams:
    """Params with a short lazy-commit timeout so tests settle quickly."""
    return SimParams(commit_timeout=0.05)


#: Clusters built during the current test; audited by ``_audit_traces``.
_TRACED_CLUSTERS: list[Cluster] = []


def build_cluster(
    protocol: str = "cx",
    num_servers: int = 4,
    num_clients: int = 2,
    procs_per_client: int = 2,
    params: SimParams | None = None,
    seed: int = 1,
    trace: bool = True,
) -> Cluster:
    cluster = Cluster.build(
        num_servers=num_servers,
        num_clients=num_clients,
        protocol=get_protocol(protocol),
        params=params or SimParams(commit_timeout=0.05),
        procs_per_client=procs_per_client,
        seed=seed,
        trace=trace,
    )
    if trace:
        _TRACED_CLUSTERS.append(cluster)
    return cluster


@pytest.fixture(autouse=True)
def _audit_traces():
    """Check the safety invariants on every traced Cx cluster a test built.

    Safety violations (torn decisions, log records freed before their
    decision, write-back before decision) are prefix-closed, so they can
    be checked after any test regardless of whether the protocol was
    quiesced.  Liveness needs a quiesced trace and is only asserted in
    the dedicated obs tests.  The invariants are promises of the *Cx*
    commitment protocol; the baseline protocols (serial, 2PC, central)
    prune their logs without Cx decision records, so only clusters of
    the two Cx variants are audited.
    """
    _TRACED_CLUSTERS.clear()
    yield
    violations = []
    for cluster in _TRACED_CLUSTERS:
        if cluster.tracer.enabled and cluster.protocol.name in CX_CONTRACT:
            violations += InvariantChecker(cluster.tracer.events).check_safety()
    _TRACED_CLUSTERS.clear()
    assert not violations, f"protocol safety violations: {violations[:5]}"


@pytest.fixture
def cluster_factory():
    return build_cluster


def make_create(cluster, proc, parent, name, target=None) -> FileOperation:
    return FileOperation(
        OpType.CREATE,
        proc.new_op_id(),
        parent=parent,
        name=name,
        target=target if target is not None else cluster.placement.allocate_handle(),
    )


def step_until(cluster, cond, limit: float = 60.0) -> None:
    """Single-step the simulator to the first instant ``cond()`` holds."""
    deadline = cluster.sim.now + limit
    while not cond():
        if cluster.sim.peek() > deadline:
            raise AssertionError("condition not reached within the limit")
        cluster.sim.step()


def run_to_completion(cluster, runner, limit: float = 120.0):
    """Drive the simulator until ``runner`` (a Process) completes."""
    step_until(cluster, lambda: runner.processed, limit)
    return runner.value


@pytest.fixture
def helpers():
    class Helpers:
        make_create = staticmethod(make_create)
        run_to_completion = staticmethod(run_to_completion)
        ROOT = ROOT_HANDLE

    return Helpers
