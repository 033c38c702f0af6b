"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event simulator in the
style of SimPy, purpose-built for the Cx reproduction.  Simulated
entities (servers, client processes, disks, the network) are
:class:`~repro.sim.process.Process` objects wrapping Python generators;
they advance virtual time by yielding :class:`~repro.sim.events.Event`
objects (timeouts, message arrivals).

Determinism: event ordering is a total order on
``(time, priority, sequence-number)`` where the sequence number is the
order of scheduling, so two runs with the same seeds produce identical
histories.
"""

from repro.sim.core import Periodic, Simulator, kernel_sprint
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    EventAlreadyTriggered,
    QueueDrained,
    SimulationError,
)
from repro.sim.process import Process
from repro.sim.resources import Store
from repro.sim.rng import RngRegistry

#: Only the interpreted kernel exists; kept because the frozen
#: ``bench/run.py`` stamps it into its payloads.
KERNEL_VARIANT = "pure"

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "EventAlreadyTriggered",
    "KERNEL_VARIANT",
    "Periodic",
    "Process",
    "QueueDrained",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Store",
    "kernel_sprint",
]
