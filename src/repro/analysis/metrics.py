"""Run-time measurement: per-operation records and periodic samplers."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.fs.ops import OpType
from repro.sim import Simulator
from repro.storage.wal import OpId


class OpRecord:
    """One completed client operation (``__slots__``: one per op)."""

    __slots__ = ("op_id", "op_type", "cross_server", "ok", "errno",
                 "start", "end", "conflicted")

    def __init__(
        self,
        op_id: OpId,
        op_type: OpType,
        cross_server: bool,
        ok: bool,
        errno: Optional[str],
        start: float,
        end: float,
        conflicted: bool = False,
    ) -> None:
        self.op_id = op_id
        self.op_type = op_type
        self.cross_server = cross_server
        self.ok = ok
        self.errno = errno
        self.start = start
        self.end = end
        #: True when the operation conflicted with a pending operation
        #: (blocked behind an immediate commitment) — drives Table II.
        self.conflicted = conflicted

    def __repr__(self) -> str:
        return (
            f"OpRecord(op_id={self.op_id!r}, op_type={self.op_type!r}, "
            f"ok={self.ok!r}, errno={self.errno!r}, "
            f"conflicted={self.conflicted!r})"
        )

    @property
    def latency(self) -> float:
        return self.end - self.start


class MetricsCollector:
    """Accumulates operation records and derived statistics."""

    def __init__(self) -> None:
        self.ops: List[OpRecord] = []

    def record(self, rec: OpRecord) -> None:
        self.ops.append(rec)

    def record_op(self, op, plan, result, start: float, end: float) -> None:
        """Convenience wrapper used by the client-process runtime."""
        self.record(
            OpRecord(
                op_id=op.op_id,
                op_type=op.op_type,
                cross_server=plan.cross_server,
                ok=result.ok,
                errno=result.errno,
                start=start,
                end=end,
                conflicted=result.conflicted,
            )
        )

    # -- derived -----------------------------------------------------------

    @property
    def total_ops(self) -> int:
        return len(self.ops)

    @property
    def completed_ok(self) -> int:
        return sum(1 for r in self.ops if r.ok)

    @property
    def cross_server_ops(self) -> int:
        return sum(1 for r in self.ops if r.cross_server)

    @property
    def conflicted_ops(self) -> int:
        return sum(1 for r in self.ops if r.conflicted)

    @property
    def conflict_ratio(self) -> float:
        """Fraction of all metadata operations that raised a conflict."""
        if not self.ops:
            return 0.0
        return self.conflicted_ops / len(self.ops)

    @property
    def makespan(self) -> float:
        """Time from first op start to last op end (replay time)."""
        if not self.ops:
            return 0.0
        return max(r.end for r in self.ops) - min(r.start for r in self.ops)

    def throughput(self) -> float:
        """Successfully completed operations per second of virtual time."""
        span = self.makespan
        return self.completed_ok / span if span > 0 else 0.0

    def mean_latency(self, cross_only: bool = False) -> float:
        lat = [r.latency for r in self.ops if (r.cross_server or not cross_only)]
        return float(np.mean(lat)) if lat else 0.0

    def latency_percentile(self, q: float) -> float:
        if not self.ops:
            return 0.0
        return float(np.percentile([r.latency for r in self.ops], q))

    def ops_by_type(self) -> Dict[OpType, int]:
        out: Dict[OpType, int] = {}
        for r in self.ops:
            out[r.op_type] = out.get(r.op_type, 0) + 1
        return out


class StreamingMetricsCollector:
    """Bounded-memory drop-in for :class:`MetricsCollector`.

    The list-of-records collector keeps one :class:`OpRecord` per
    operation — exact, but O(ops) memory, which the scale family's
    million-op cells cannot afford.  This variant folds every record
    into counters plus a log-bucketed latency histogram
    (:class:`repro.obs.registry.Histogram`, memory bounded by the
    number of distinct sub-buckets ever touched), so a cell's metrics
    footprint is independent of how many operations it replays.
    Percentiles are bucket-midpoint approximations (≤ ~12.5% relative
    error); counts, sums, and the makespan stay exact.
    """

    def __init__(self) -> None:
        from repro.obs.registry import Histogram

        self._lat = Histogram()
        self.total_ops = 0
        self.completed_ok = 0
        self.cross_server_ops = 0
        self.conflicted_ops = 0
        self._cross_lat_sum = 0.0
        self._first_start = float("inf")
        self._last_end = float("-inf")
        self._by_type: Dict[OpType, int] = {}

    def record_op(self, op, plan, result, start: float, end: float) -> None:
        self.total_ops += 1
        if result.ok:
            self.completed_ok += 1
        cross = plan.cross_server
        if cross:
            self.cross_server_ops += 1
            self._cross_lat_sum += end - start
        if result.conflicted:
            self.conflicted_ops += 1
        self._lat.observe(end - start)
        if start < self._first_start:
            self._first_start = start
        if end > self._last_end:
            self._last_end = end
        t = op.op_type
        self._by_type[t] = self._by_type.get(t, 0) + 1

    # -- derived (same surface as MetricsCollector) ------------------------

    @property
    def conflict_ratio(self) -> float:
        if not self.total_ops:
            return 0.0
        return self.conflicted_ops / self.total_ops

    @property
    def makespan(self) -> float:
        if not self.total_ops:
            return 0.0
        return self._last_end - self._first_start

    def throughput(self) -> float:
        span = self.makespan
        return self.completed_ok / span if span > 0 else 0.0

    def mean_latency(self, cross_only: bool = False) -> float:
        if cross_only:
            if not self.cross_server_ops:
                return 0.0
            return self._cross_lat_sum / self.cross_server_ops
        return self._lat.mean if self.total_ops else 0.0

    def latency_percentile(self, q: float) -> float:
        if not self.total_ops:
            return 0.0
        return self._lat.percentile(q)

    def ops_by_type(self) -> Dict[OpType, int]:
        return dict(self._by_type)


class TimelineSampler:
    """Periodically samples a probe function against virtual time.

    Used for Figure 7(b): the valid-record footprint of a server's log
    over the course of a replay.
    """

    def __init__(
        self,
        sim: Simulator,
        probe: Callable[[], float],
        period: float,
        name: str = "sampler",
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.probe = probe
        self.period = period
        self.name = name
        self.samples: List[Tuple[float, float]] = []
        self._proc = sim.process(self._loop())

    def _loop(self):
        while True:
            self.samples.append((self.sim.now, float(self.probe())))
            yield self.sim.timeout(self.period)

    def stop(self) -> None:
        """Halt sampling (e.g. when the observed replay has ended)."""
        self._proc.kill()

    def __enter__(self) -> "TimelineSampler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Sampling starts at construction; the with-block only scopes
        # the stop, so an exception mid-replay still halts the probe.
        self.stop()

    def series(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self.samples:
            return np.empty(0), np.empty(0)
        arr = np.asarray(self.samples)
        return arr[:, 0], arr[:, 1]

    @property
    def peak(self) -> float:
        return max((v for _t, v in self.samples), default=0.0)
