"""Tests for the discrete-event loop."""

import pytest

from repro.sim import Event, SimulationError, Simulator, Timeout


def test_initial_time_is_zero(sim):
    assert sim.now == 0


def test_timeout_advances_clock(sim):
    sim.timeout(10)
    sim.run()
    assert sim.now == 10


def test_events_fire_in_time_order(sim):
    order = []
    for delay in [30, 10, 20]:
        ev = Event(sim)
        ev.add_callback(lambda e, d=delay: order.append(d))
        sim.schedule(ev, delay)
        ev._value = None  # pre-trigger manually for bare scheduling
    sim.run()
    assert order == [10, 20, 30]


def test_ties_broken_by_schedule_order(sim):
    order = []

    def proc(tag):
        yield sim.timeout(5)
        order.append(tag)

    for tag in ["a", "b", "c"]:
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError, match="negative delay"):
        sim.schedule(Event(sim), -1)


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError, match="negative timeout"):
        sim.timeout(-5)


def test_run_until_is_exclusive(sim):
    fired = []

    def proc():
        yield sim.timeout(10)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=10)
    assert fired == []
    assert sim.now == 10
    sim.run()
    assert fired == [10]


def test_run_until_clamps_time_forward(sim):
    sim.run(until=42)
    assert sim.now == 42


def test_step_on_empty_queue_raises(sim):
    with pytest.raises(SimulationError, match="empty"):
        sim.step()


def test_peek_returns_next_event_time(sim):
    sim.timeout(7)
    sim.timeout(3)
    assert sim.peek() == 3


def test_peek_empty_is_inf(sim):
    assert sim.peek() == float("inf")


def test_event_count_increments(sim):
    for _ in range(5):
        sim.timeout(1)
    sim.run()
    assert sim.event_count == 5


def test_run_process_returns_value(sim):
    def proc():
        yield sim.timeout(1)
        return 99

    assert sim.run_process(proc()) == 99


def test_run_process_detects_deadlock(sim):
    def proc():
        yield Event(sim)  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(proc())


def test_run_not_reentrant(sim):
    def proc():
        with pytest.raises(SimulationError, match="not reentrant"):
            sim.run()
        yield sim.timeout(1)

    sim.process(proc())
    sim.run()


def test_zero_delay_events_run_before_time_advances(sim):
    order = []

    def proc():
        yield sim.timeout(0)
        order.append(("zero", sim.now))
        yield sim.timeout(5)
        order.append(("five", sim.now))

    sim.process(proc())
    sim.run()
    assert order == [("zero", 0), ("five", 5)]


def test_simultaneous_heavy_load_is_deterministic():
    def build():
        s = Simulator()
        log = []

        def proc(i):
            for _ in range(10):
                yield s.timeout(1)
                log.append(i)

        for i in range(20):
            s.process(proc(i))
        s.run()
        return log

    assert build() == build()


def test_fractional_delays(sim):
    times = []

    def proc():
        yield sim.timeout(0.5)
        times.append(sim.now)
        yield sim.timeout(0.25)
        times.append(sim.now)

    sim.process(proc())
    sim.run()
    assert times == [0.5, 0.75]


def test_reserved_seq_orders_same_instant_events(sim):
    """An event scheduled with a reserved tie-break number fires among
    same-instant events as if scheduled when the number was reserved."""
    from repro.sim.engine import _Deferred

    log = []
    early, late = sim.reserve(2)
    sim.schedule_at(_Deferred(lambda: log.append("plain")), 5)
    sim.schedule_at(_Deferred(lambda: log.append("late")), 5, seq=late)
    sim.schedule_at(_Deferred(lambda: log.append("early")), 5, seq=early)
    sim.run()
    assert log == ["early", "late", "plain"]
