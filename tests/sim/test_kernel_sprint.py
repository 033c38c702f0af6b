"""``kernel_sprint`` pauses the cyclic collector and collects on entry."""

import gc
import weakref

import pytest

from repro.sim import kernel_sprint


class _Cyclic:
    def __init__(self):
        self.me = self


@pytest.fixture(autouse=True)
def _collector_enabled():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


def test_garbage_of_the_last_sprint_dies_when_the_next_one_starts():
    with kernel_sprint():
        obj = _Cyclic()
    ref = weakref.ref(obj)
    gc.collect()  # promoted: no young-generation collection frees it
    del obj
    assert ref() is not None
    with kernel_sprint():
        assert ref() is None
        assert not gc.isenabled()


def test_collector_is_enabled_again_after_each_sprint():
    for _ in range(2):
        with kernel_sprint():
            assert not gc.isenabled()
        assert gc.isenabled()


def test_collector_is_enabled_again_after_a_failing_sprint():
    with pytest.raises(RuntimeError):
        with kernel_sprint():
            raise RuntimeError("boom")
    assert gc.isenabled()


def test_nested_sprint_neither_collects_nor_re_enables():
    with kernel_sprint():
        ref = weakref.ref(_Cyclic())
        with kernel_sprint():
            assert ref() is not None
        assert ref() is not None
        assert not gc.isenabled()
    assert gc.isenabled()


def test_sprint_under_a_disabled_collector_leaves_it_alone():
    gc.disable()
    ref = weakref.ref(_Cyclic())
    with kernel_sprint():
        assert ref() is not None
    assert ref() is not None
    assert not gc.isenabled()
