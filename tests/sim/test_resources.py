"""Unit tests for Store."""

from repro.sim import Store
from repro.sim.resources import ResourceClosed


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        ev = store.get()
        assert ev.triggered
        assert ev.value == "x"

    def test_get_then_put(self, sim):
        store = Store(sim)
        ev = store.get()
        assert not ev.triggered
        store.put("y")
        assert ev.triggered and ev.value == "y"

    def test_fifo_order(self, sim):
        store = Store(sim)
        for i in range(3):
            store.put(i)
        assert [store.get().value for _ in range(3)] == [0, 1, 2]

    def test_len_counts_buffered(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        store.get()
        assert len(store) == 1

    def test_close_fails_waiting_getters(self, sim):
        store = Store(sim)
        ev = store.get()
        ev.defuse()
        store.close()
        sim.run()
        assert ev.ok is False
        assert isinstance(ev.value, ResourceClosed)

    def test_closed_store_drops_puts(self, sim):
        store = Store(sim)
        store.close()
        store.put("lost")
        assert len(store) == 0

    def test_get_on_closed_store_fails(self, sim):
        store = Store(sim)
        store.close()
        ev = store.get()
        assert ev.ok is False
        sim.run()

    def test_reopen_restores_service(self, sim):
        store = Store(sim)
        store.close()
        store.reopen()
        store.put("back")
        assert store.get().value == "back"

    def test_close_clears_buffered_items(self, sim):
        store = Store(sim)
        store.put("a")
        store.close()
        store.reopen()
        ev = store.get()
        assert not ev.triggered  # item was dropped at close

    def test_consumer_producer_processes(self, sim):
        store = Store(sim)
        received = []

        def producer(sim):
            for i in range(5):
                yield sim.timeout(1.0)
                store.put(i)

        def consumer(sim):
            for _ in range(5):
                item = yield store.get()
                received.append((sim.now, item))

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert received == [(i + 1.0, i) for i in range(5)]
