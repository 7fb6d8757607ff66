"""Tests for FIFO stores."""

import pytest

from repro.sim import Store


def test_put_then_get_immediate(sim):
    store = Store(sim)
    store.put("x")
    ev = store.get()
    assert ev.triggered
    sim.run()
    assert ev.value == "x"


def test_get_blocks_until_put(sim):
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(9)
        store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("late", 9)]


def test_fifo_order(sim):
    store = Store(sim)
    for i in range(5):
        store.put(i)

    def consumer():
        out = []
        for _ in range(5):
            out.append((yield store.get()))
        return out

    assert sim.run_process(consumer()) == [0, 1, 2, 3, 4]


def test_multiple_getters_served_in_order(sim):
    store = Store(sim)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    sim.process(consumer("a"))
    sim.process(consumer("b"))

    def producer():
        yield sim.timeout(1)
        store.put(1)
        store.put(2)

    sim.process(producer())
    sim.run()
    assert got == [("a", 1), ("b", 2)]


def test_len_counts_buffered_items(sim):
    store = Store(sim)
    store.put("a")
    store.put("b")
    assert len(store) == 2
    store.try_get()
    assert len(store) == 1


def test_try_get_nonblocking(sim):
    store = Store(sim)
    with pytest.raises(LookupError):
        store.try_get()
    store.put(7)
    assert store.try_get() == 7
