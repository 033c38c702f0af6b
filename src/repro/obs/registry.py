"""Per-server metrics registry: counters, gauges, histograms.

Each :class:`~repro.cluster.server.MetadataServer` owns one
:class:`MetricsRegistry`; the protocol layers record batch sizes,
commitment latencies, WAL sync counts, queue depths, and
conflict/disagreement/disorder tallies into it.  Registries are cheap
(always on — an ``inc`` is one attribute add) and snapshot to plain
dicts for reporting; :func:`merge_snapshots` aggregates a cluster.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self):
        return self.value


class Gauge:
    """A point-in-time value; remembers its high-water mark."""

    __slots__ = ("value", "max")

    def __init__(self) -> None:
        self.value = 0.0
        self.max = 0.0

    def set(self, v: float) -> None:
        self.value = v
        if v > self.max:
            self.max = v

    def snapshot(self):
        return {"value": self.value, "max": self.max}


class Histogram:
    """A distribution summarized in logarithmic buckets.

    Always-on metrics cannot afford the keep-every-sample list the
    first version used (memory grew with run length).  Instead each
    observation lands in one of :data:`SUBBUCKETS` sub-buckets per
    power-of-two octave, so memory is bounded by the number of distinct
    sub-buckets ever touched (a few dozen for any real meter) no matter
    how many values are observed.  ``count``/``sum``/``min``/``max``
    stay exact; quantiles are approximated by the containing bucket's
    midpoint — at most one sub-bucket off (≤ 1/SUBBUCKETS ≈ 12.5%
    relative error) — and clamped to the exact ``[min, max]``.
    """

    __slots__ = ("count", "sum", "min", "max", "_buckets")

    #: Sub-buckets per power-of-two octave.
    SUBBUCKETS = 8

    #: Bucket index shared by every non-positive observation.
    _NONPOS = -(1 << 30)

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets: Dict[int, int] = {}

    @classmethod
    def _index(cls, v: float) -> int:
        if v <= 0.0:
            return cls._NONPOS
        m, e = math.frexp(v)  # v = m * 2**e with m in [0.5, 1)
        return e * cls.SUBBUCKETS + int((m - 0.5) * 2 * cls.SUBBUCKETS)

    @classmethod
    def _midpoint(cls, idx: int) -> float:
        if idx == cls._NONPOS:
            return 0.0
        e, sub = divmod(idx, cls.SUBBUCKETS)
        lo = math.ldexp(1.0 + sub / cls.SUBBUCKETS, e - 1)
        return lo + math.ldexp(1.0 / cls.SUBBUCKETS, e - 1) / 2.0

    def observe(self, v: float) -> None:
        v = float(v)
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        idx = self._index(v)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    @property
    def total(self) -> float:
        return self.sum

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        if not self.count:
            return 0.0
        target = max(1, math.ceil(self.count * q / 100.0))
        seen = 0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen >= target:
                return min(max(self._midpoint(idx), self.min), self.max)
        return self.max  # pragma: no cover - target <= count always hits

    def snapshot(self):
        if not self.count:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0, "p50": 0.0, "p99": 0.0, "p999": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
        }


class MetricsRegistry:
    """Named metrics of one server (or any other node)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create accessors ----------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Every meter that was ever written.  One that only exists
        (owners resolve their handles up front) reports nothing, so
        which meters a run shows depends on what happened in it, not on
        who was constructed."""
        out: Dict[str, object] = {}
        for name, c in sorted(self._counters.items()):
            if c.value:
                out[name] = c.snapshot()
        for name, g in sorted(self._gauges.items()):
            if g.value or g.max:
                out[name] = g.snapshot()
        for name, h in sorted(self._histograms.items()):
            if h.count:
                out[name] = h.snapshot()
        return out

    def render(self) -> str:
        lines = [f"[{self.name}]"]
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                inner = ", ".join(
                    f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in value.items()
                )
                lines.append(f"  {name}: {inner}")
            else:
                lines.append(f"  {name}: {value}")
        return "\n".join(lines)


def merge_snapshot_dicts(snapshots: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Merge plain snapshot dicts (as produced by :meth:`MetricsRegistry.snapshot`).

    Counters sum; gauges sum their values and keep the max high-water
    mark; histogram summaries combine count/sum/min/max and recompute
    the mean (quantiles are not mergeable and are dropped).  Snapshot
    dicts — not registries — are the merge currency across process
    boundaries: the parallel experiment runner ships per-server
    snapshots back from its workers and folds them into the
    cluster-wide view here.
    """
    merged: Dict[str, object] = {}
    for snap in snapshots:
        for name, value in snap.items():
            if isinstance(value, (int, float)):
                merged[name] = merged.get(name, 0) + value
            elif "max" in value and "count" not in value:  # gauge
                prev: Optional[dict] = merged.get(name)  # type: ignore[assignment]
                if prev is None:
                    merged[name] = dict(value)
                else:
                    prev["value"] += value["value"]
                    prev["max"] = max(prev["max"], value["max"])
            else:  # histogram summary (quantiles are not mergeable)
                value = {k: v for k, v in value.items()
                         if k not in ("p50", "p99", "p999")}
                prev = merged.get(name)  # type: ignore[assignment]
                if prev is None:
                    merged[name] = dict(value)
                else:
                    total = prev["count"] + value["count"]
                    if total:
                        prev["mean"] = (
                            prev["sum"] + value["sum"]
                        ) / total
                    prev["count"] = total
                    prev["sum"] += value["sum"]
                    prev["min"] = min(prev["min"], value["min"]) if value["count"] else prev["min"]
                    prev["max"] = max(prev["max"], value["max"])
    return merged


def merge_snapshots(registries: Iterable[MetricsRegistry]) -> Dict[str, object]:
    """Sum counters and histogram counts/sums across registries.

    Gauges aggregate by their high-water marks (max across servers).
    """
    return merge_snapshot_dicts(reg.snapshot() for reg in registries)
