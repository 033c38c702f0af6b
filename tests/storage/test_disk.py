"""Unit tests for the disk model."""

import pytest

from repro.storage import Disk, Extent


@pytest.fixture
def disk(sim, params):
    return Disk(sim, params)


class TestExtent:
    def test_validation(self):
        with pytest.raises(ValueError):
            Extent(-1, 10)
        with pytest.raises(ValueError):
            Extent(0, 0)

    def test_end(self):
        assert Extent(100, 50).end == 150


class TestServiceModel:
    def test_adjacent_costs_settle(self, sim, params, disk):
        # First write from head position 0 to offset 0 is adjacent.
        ev = disk.submit([Extent(0, 4096)])
        sim.run()
        assert ev.processed
        expected = params.disk_settle + 4096 * params.disk_byte_time
        assert sim.now == pytest.approx(expected)
        assert disk.stats.settles == 1
        assert disk.stats.seeks == 0

    def test_far_offset_costs_seek(self, sim, params, disk):
        disk.submit([Extent(100 * 1024 * 1024, 512)])
        sim.run()
        assert disk.stats.seeks == 1
        assert sim.now == pytest.approx(
            params.disk_seek + 512 * params.disk_byte_time
        )

    def test_head_tracks_last_extent(self, sim, disk):
        disk.submit([Extent(1000, 500)])
        sim.run()
        assert disk.head == 1500

    def test_sequential_appends_stay_cheap(self, sim, params, disk):
        offset = 0
        for _ in range(5):
            disk.submit([Extent(offset, 128)])
            offset += 128
        sim.run()
        assert disk.stats.seeks == 0
        assert disk.stats.settles == 5

    def test_multi_extent_request_charges_per_extent(self, sim, params, disk):
        far = 500 * 1024 * 1024
        disk.submit([Extent(0, 512), Extent(far, 512)])
        sim.run()
        assert disk.stats.extents == 2
        assert disk.stats.requests == 1
        assert disk.stats.settles == 1
        assert disk.stats.seeks == 1

    def test_empty_request_rejected(self, sim, disk):
        with pytest.raises(ValueError):
            disk.submit([])

    def test_read_vs_write_accounting(self, sim, disk):
        disk.submit([Extent(0, 100)], write=True)
        disk.submit([Extent(0, 200)], write=False)
        sim.run()
        assert disk.stats.bytes_written == 100
        assert disk.stats.bytes_read == 200


class TestQueueing:
    def test_fifo_service(self, sim, params, disk):
        done_order = []
        for i in range(3):
            ev = disk.submit([Extent(i * 100 * 1024 * 1024, 512)])
            ev.callbacks.append(lambda e, i=i: done_order.append(i))
        sim.run()
        assert done_order == [0, 1, 2]

    def test_queueing_delay_accumulates(self, sim, params, disk):
        evs = [disk.submit([Extent(i * 100 * 1024 * 1024, 512)]) for i in range(4)]
        times = []
        for ev in evs:
            ev.callbacks.append(lambda e: times.append(sim.now))
        sim.run()
        # Each request takes roughly one seek; completion times spread out.
        assert times == sorted(times)
        assert times[-1] > 3 * params.disk_seek

    def test_busy_time_tracked(self, sim, disk):
        disk.submit([Extent(0, 1024)])
        sim.run()
        assert disk.stats.busy_time == pytest.approx(sim.now)

    def test_service_time_is_pure(self, sim, params, disk):
        extents = [Extent(10 * 1024 * 1024, 512)]
        t1 = disk.service_time(extents)
        t2 = disk.service_time(extents)
        assert t1 == t2
        assert disk.head == 0  # unchanged
