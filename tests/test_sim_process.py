"""Tests for generator processes."""

import pytest

from repro.sim import Event, SimulationError, Simulator


def test_process_requires_generator(sim):
    with pytest.raises(TypeError, match="generator"):
        sim.process(lambda: None)


def test_process_return_value_is_event_value(sim):
    def proc():
        yield sim.timeout(1)
        return "done"

    p = sim.process(proc())
    sim.run()
    assert p.value == "done"


def test_yield_non_event_fails_process(sim):
    def proc():
        yield 42

    p = sim.process(proc())
    sim.run()
    assert not p.ok
    with pytest.raises(SimulationError, match="must yield Event"):
        p.value


def test_exception_inside_process_captured(sim):
    def proc():
        yield sim.timeout(1)
        raise KeyError("inner")

    p = sim.process(proc())
    sim.run()
    assert not p.ok
    with pytest.raises(KeyError):
        p.value


def test_failed_event_reraises_inside_waiter(sim):
    bad = Event(sim)

    def proc():
        try:
            yield bad
        except RuntimeError as exc:
            return f"caught {exc}"

    p = sim.process(proc())
    bad.fail(RuntimeError("bang"))
    sim.run()
    assert p.value == "caught bang"


def test_process_waits_on_process(sim):
    def child():
        yield sim.timeout(10)
        return 5

    def parent():
        result = yield sim.process(child())
        return result * 2

    assert sim.run_process(parent()) == 10
    assert sim.now == 10


def test_is_alive(sim):
    def proc():
        yield sim.timeout(5)

    p = sim.process(proc())
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_immediate_return_process(sim):
    def proc():
        return "instant"
        yield  # pragma: no cover

    p = sim.process(proc())
    sim.run()
    assert p.value == "instant"


def test_many_sequential_processes_share_clock():
    sim = Simulator()
    finish = []

    def proc(i):
        yield sim.timeout(i)
        finish.append((i, sim.now))

    for i in range(5):
        sim.process(proc(i))
    sim.run()
    assert finish == [(i, i) for i in range(5)]
