"""Tests for Event / Timeout semantics."""

import pytest

from repro.sim import Event, SimulationError, Timeout


def test_event_starts_untriggered(sim):
    ev = Event(sim)
    assert not ev.triggered
    assert not ev.processed


def test_succeed_carries_value(sim):
    ev = Event(sim).succeed("payload")
    sim.run()
    assert ev.value == "payload"
    assert ev.ok


def test_succeed_with_none_value_counts_as_triggered(sim):
    ev = Event(sim).succeed(None)
    assert ev.triggered


def test_double_trigger_rejected(sim):
    ev = Event(sim).succeed(1)
    with pytest.raises(SimulationError, match="already triggered"):
        ev.succeed(2)
    with pytest.raises(SimulationError, match="already triggered"):
        ev.fail(RuntimeError("x"))


def test_value_before_trigger_raises(sim):
    with pytest.raises(SimulationError, match="untriggered"):
        Event(sim).value


def test_fail_requires_exception(sim):
    with pytest.raises(TypeError):
        Event(sim).fail("not an exception")


def test_fail_reraises_in_value(sim):
    ev = Event(sim).fail(ValueError("boom"))
    sim.run()
    assert not ev.ok
    with pytest.raises(ValueError, match="boom"):
        ev.value


def test_callback_after_processed_runs_immediately(sim):
    ev = Event(sim).succeed(5)
    sim.run()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    assert got == [5]


def test_timeout_value(sim):
    t = Timeout(sim, 3, value="tick")
    sim.run()
    assert t.value == "tick"
