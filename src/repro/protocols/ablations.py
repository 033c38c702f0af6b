"""Ablation variants of Cx: isolate its two mechanisms.

Cx's win combines two independent mechanisms:

1. **Concurrent execution** — the client fans both sub-ops out at once
   instead of serializing two round trips;
2. **Lazy batched commitment** — Result-Records + deferred write-back,
   with the VOTE/COMMIT/ACK exchange amortized over batches.

These protocol variants turn one mechanism off at a time, so the
ablation benchmark (`benchmarks/test_ablation_mechanisms.py`) can
attribute the measured gain:

* :class:`CxSerialExecProtocol` — sub-ops execute **serially**
  (participant first, like SE), but servers still use Cx's lazy
  batched commitment.  Gain over OFS ≈ the batching contribution.
  It is Cx's client half with the serial send order: the same
  combine step, retry and L-COM.
* Cx with ``commit_threshold=1`` (no new class needed) — concurrent
  execution, but every operation commits **immediately**.  Gain over
  OFS ≈ the concurrency contribution.
"""

from __future__ import annotations

from repro.core.protocol import CxProtocol


class CxSerialExecProtocol(CxProtocol):
    """Cx's commitment machinery with SE's serial execution order.

    The client sends the participant's sub-op, waits, then sends the
    coordinator's — so each cross-server operation pays both round
    trips back to back, exactly like OFS, while the servers still log
    Result-Records, defer write-back, and batch commitments.
    """

    name = "cx-serial-exec"
    concurrent = False
