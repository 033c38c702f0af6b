"""Batched-commitment triggers (paper §IV.A).

"The permitted lazy commitments are batched and launched by triggers.
Our implementation currently supports two types of triggers:
(1) Timeout trigger, (2) Threshold trigger."

The timeout trigger fires periodically; the threshold trigger fires
when the number of pending operations since the last commitment crosses
a limit.  Both can be armed at once; either may be disabled (None).
Without the timeout trigger the timer still ticks every ``scan_period``
for the liveness scan.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim import Periodic, Simulator


class CommitTriggers:
    """Drives ``launch`` according to the configured triggers."""

    def __init__(
        self,
        sim: Simulator,
        launch: Callable[[str], None],
        timeout: Optional[float],
        threshold: Optional[int],
        on_fire: Optional[Callable[..., None]] = None,
        scan: Optional[Callable[[], None]] = None,
        idle: Optional[Callable[[], bool]] = None,
        scan_period: Optional[float] = None,
    ) -> None:
        if threshold is not None and threshold < 1:
            raise ValueError("threshold trigger must be >= 1")
        self.launch = launch
        self.timeout = timeout
        self.threshold = threshold
        self.timeout_fires = 0
        self.threshold_fires = 0
        #: Observability hook: called with ``(kind, fires)`` — one fire,
        #: or the ``k`` timer fires skipped while idle (the Cx role
        #: records trace events and metrics through it).
        self.on_fire = on_fire
        #: Liveness piggyback: called on each *timer* fire only (the Cx
        #: role runs its vote-retry and re-delivery scans here, so
        #: liveness timers cost zero extra timeline events).
        self.scan = scan
        #: The timeout trigger, or the bare scan without one.  ``idle()``
        #: true promises that a fire would launch nothing and scan
        #: nothing (the :class:`~repro.sim.Periodic` idle contract); such
        #: fires are counted, not executed.
        period = timeout if timeout is not None else scan_period
        self._timer = None if period is None else Periodic(
            sim, period, self._fire, idle, self._skipped
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._timer is not None:
            self._timer.start()

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def _fire(self) -> None:
        if self.timeout is not None:
            self._skipped(1)
            self.launch("timeout")
        if self.scan is not None:
            self.scan()

    def _skipped(self, k: int) -> None:
        if self.timeout is not None:
            self.timeout_fires += k
            if self.on_fire is not None:
                self.on_fire("timeout", k)

    # -- threshold ---------------------------------------------------------------

    def notify_pending(self, pending_count: int) -> None:
        """Called after each execution with the current pending count."""
        if self.threshold is not None and pending_count >= self.threshold:
            self.threshold_fires += 1
            if self.on_fire is not None:
                self.on_fire("threshold")
            self.launch("threshold")
