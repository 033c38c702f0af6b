"""Cross-server operation protocols: the paper's baselines and Cx.

=================  ====================================================
Protocol           Paper reference
=================  ====================================================
``TwoPCProtocol``  Fig. 1(a) — Slice / IFS / Farsite / DCFS
``SerialProtocol`` Fig. 1(b) — PVFS2 / OrangeFS ("OFS" baseline)
``SerialBatchedProtocol``  §IV.C — "OFS-batched" baseline
``CentralProtocol``        Fig. 1(c) — Ursa Minor ("CE")
``CxProtocol``     the paper's contribution (lives in ``repro.core``)
=================  ====================================================
"""

import importlib

from repro.protocols.base import Protocol, ServerRole
from repro.protocols.serial import SerialProtocol
from repro.protocols.serial_batched import SerialBatchedProtocol
from repro.protocols.twopc import TwoPCProtocol
from repro.protocols.central import CentralProtocol

#: Short name -> ``module:class`` of every protocol.  Paths, not classes:
#: ``repro.core`` imports this package, so Cx is imported on first use.
_REGISTRY = {
    "ofs": "repro.protocols.serial:SerialProtocol",
    "ofs-batched": "repro.protocols.serial_batched:SerialBatchedProtocol",
    "2pc": "repro.protocols.twopc:TwoPCProtocol",
    "ce": "repro.protocols.central:CentralProtocol",
    "cx": "repro.core:CxProtocol",
    "cx-serial-exec": "repro.protocols.ablations:CxSerialExecProtocol",
}

#: Short names accepted by :func:`get_protocol`.
PROTOCOL_NAMES = tuple(_REGISTRY)


def get_protocol(name: str) -> Protocol:
    """Instantiate a protocol by its short name (includes "cx")."""
    try:
        module, cls = _REGISTRY[name].split(":")
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return getattr(importlib.import_module(module), cls)()


__all__ = [
    "CentralProtocol",
    "PROTOCOL_NAMES",
    "Protocol",
    "SerialBatchedProtocol",
    "SerialProtocol",
    "ServerRole",
    "TwoPCProtocol",
    "get_protocol",
]
