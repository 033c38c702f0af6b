"""Unit tests for the per-server metrics registry."""

import pytest

from repro.obs import MetricsRegistry, merge_snapshots


class TestPrimitives:
    def test_counter(self):
        reg = MetricsRegistry("mds0")
        reg.counter("commit.batches").inc()
        reg.counter("commit.batches").inc(4)
        assert reg.counter("commit.batches").value == 5

    def test_gauge_tracks_high_water_mark(self):
        g = MetricsRegistry("mds0").gauge("commit.queue_depth")
        g.set(3)
        g.set(10)
        g.set(2)
        assert g.value == 2
        assert g.max == 10

    def test_histogram_stats(self):
        h = MetricsRegistry("mds0").histogram("commit.batch_size")
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(16.0)
        assert h.mean == pytest.approx(4.0)
        # Quantiles are bucket approximations: the p50 must land in the
        # sub-bucket containing the rank-2 sample (2.0 -> [2.0, 2.25)).
        assert 2.0 <= h.percentile(50) < 2.25
        assert 10.0 <= h.percentile(99) <= 10.0 * (1 + 1 / h.SUBBUCKETS)

    def test_histogram_quantiles_clamped_to_observed_range(self):
        h = MetricsRegistry("mds0").histogram("h")
        h.observe(64.0)
        # One sample: every quantile is exactly that sample, not the
        # bucket midpoint.
        assert h.percentile(50) == 64.0
        assert h.percentile(99.9) == 64.0
        assert h.min == 64.0 and h.max == 64.0

    def test_histogram_memory_is_bounded(self):
        h = MetricsRegistry("mds0").histogram("h")
        for i in range(10_000):
            h.observe(1e-6 * (i + 1))
        assert h.count == 10_000
        # 10k distinct values over ~14 octaves collapse into a bounded
        # set of sub-buckets (vs. the old keep-every-sample list).
        assert len(h._buckets) <= 14 * h.SUBBUCKETS
        # Quantile accuracy stays within one sub-bucket of exact.
        assert h.percentile(50) == pytest.approx(5e-3, rel=1 / h.SUBBUCKETS)
        assert h.percentile(99.9) == pytest.approx(1e-2, rel=1 / h.SUBBUCKETS)

    def test_histogram_nonpositive_values(self):
        h = MetricsRegistry("mds0").histogram("h")
        for v in (0.0, 0.0, 5.0):
            h.observe(v)
        assert h.min == 0.0 and h.max == 5.0
        assert h.percentile(50) == 0.0
        assert h.sum == pytest.approx(5.0)

    def test_accessors_get_or_create(self):
        reg = MetricsRegistry("mds0")
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")


class TestSnapshots:
    def test_snapshot_shapes(self):
        reg = MetricsRegistry("mds0")
        reg.counter("wal.appends").inc(7)
        reg.gauge("wal.valid_bytes").set(128)
        reg.histogram("wal.sync_bytes").observe(64.0)
        snap = reg.snapshot()
        assert snap["wal.appends"] == 7
        assert snap["wal.valid_bytes"] == {"value": 128, "max": 128}
        assert snap["wal.sync_bytes"]["count"] == 1
        assert snap["wal.sync_bytes"]["p50"] == pytest.approx(64.0)
        assert snap["wal.sync_bytes"]["p999"] == pytest.approx(64.0)

    def test_unwritten_meters_stay_out_of_the_snapshot(self):
        """Owners resolve their handles at construction; a meter shows
        up only once something was recorded into it."""
        reg = MetricsRegistry("mds0")
        parked = reg.counter("commit.parked")
        depth = reg.gauge("commit.queue_depth")
        latency = reg.histogram("commit.latency")
        assert reg.snapshot() == {}
        assert reg.render() == "[mds0]"
        parked.inc()
        assert reg.snapshot() == {"commit.parked": 1}
        depth.set(2)
        depth.set(0)  # back to zero: the high-water mark keeps it visible
        latency.observe(0.0)  # a zero-valued sample is still a sample
        snap = reg.snapshot()
        assert set(snap) == {
            "commit.parked", "commit.queue_depth", "commit.latency",
        }
        assert snap["commit.queue_depth"] == {"value": 0, "max": 2}
        assert snap["commit.latency"]["count"] == 1

    def test_empty_histogram_snapshot(self):
        snap = MetricsRegistry("x").histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["mean"] == 0.0

    def test_render_mentions_name_and_metrics(self):
        reg = MetricsRegistry("mds3")
        reg.counter("conflicts").inc()
        text = reg.render()
        assert "[mds3]" in text
        assert "conflicts: 1" in text


class TestMerge:
    def test_merge_sums_counters_and_histograms(self):
        a, b = MetricsRegistry("mds0"), MetricsRegistry("mds1")
        a.counter("commit.decisions").inc(3)
        b.counter("commit.decisions").inc(2)
        a.histogram("commit.latency").observe(1.0)
        b.histogram("commit.latency").observe(3.0)
        merged = merge_snapshots([a, b])
        assert merged["commit.decisions"] == 5
        lat = merged["commit.latency"]
        assert lat["count"] == 2
        assert lat["sum"] == pytest.approx(4.0)
        assert lat["mean"] == pytest.approx(2.0)
        assert lat["min"] == 1.0 and lat["max"] == 3.0
        # quantiles are not mergeable across servers and must be dropped
        assert "p50" not in lat and "p99" not in lat and "p999" not in lat

    def test_merge_gauges_max_of_high_water_marks(self):
        a, b = MetricsRegistry("mds0"), MetricsRegistry("mds1")
        a.gauge("commit.queue_depth").set(4)
        b.gauge("commit.queue_depth").set(9)
        merged = merge_snapshots([a, b])
        assert merged["commit.queue_depth"]["max"] == 9
        assert merged["commit.queue_depth"]["value"] == 13

    def test_merge_skips_empty_histograms_min(self):
        a, b = MetricsRegistry("mds0"), MetricsRegistry("mds1")
        a.histogram("h").observe(5.0)
        b.histogram("h")  # created but never observed
        merged = merge_snapshots([a, b])
        assert merged["h"]["count"] == 1
        assert merged["h"]["min"] == 5.0

    def test_merge_unaffected_by_unwritten_meters(self):
        a, b = MetricsRegistry("mds0"), MetricsRegistry("mds1")
        for reg in (a, b):  # both servers resolve every handle
            reg.counter("commit.parked")
            reg.gauge("commit.queue_depth")
            reg.histogram("commit.latency")
        a.counter("commit.parked").inc(2)
        a.gauge("commit.queue_depth").set(3)
        a.histogram("commit.latency").observe(1.5)
        merged = merge_snapshots([a, b])
        assert merged == merge_snapshots([a])
        assert merged["commit.parked"] == 2
        assert merged["commit.queue_depth"] == {"value": 3, "max": 3}
        assert merged["commit.latency"]["count"] == 1
