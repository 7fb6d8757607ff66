"""Tests for FCFS resources."""

import pytest

from repro.sim import Resource, SimulationError


def test_capacity_must_be_positive(sim):
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_grant_when_free_is_immediate(sim):
    res = Resource(sim)
    req = res.request()
    assert req.triggered
    assert res.count == 1


def test_fifo_ordering(sim):
    res = Resource(sim)
    order = []

    def proc(tag, arrive):
        yield sim.timeout(arrive)
        yield from res.serve(10)
        order.append((tag, sim.now))

    for tag, arrive in [("a", 0), ("b", 1), ("c", 2)]:
        sim.process(proc(tag, arrive))
    sim.run()
    assert order == [("a", 10), ("b", 20), ("c", 30)]


def test_capacity_two_overlaps(sim):
    res = Resource(sim, capacity=2)
    done = []

    def proc(tag):
        yield from res.serve(10)
        done.append((tag, sim.now))

    for tag in "abc":
        sim.process(proc(tag))
    sim.run()
    assert done == [("a", 10), ("b", 10), ("c", 20)]


def test_release_unowned_raises(sim):
    res = Resource(sim)
    req = res.request()
    res.release(req)
    with pytest.raises(SimulationError, match="does not hold"):
        res.release(req)


def test_queue_length_tracks_waiters(sim):
    res = Resource(sim)
    res.request()
    res.request()
    res.request()
    assert res.count == 1
    assert res.queue_length == 2


def test_utilization_statistics(sim):
    res = Resource(sim)

    def proc():
        yield from res.serve(10)
        yield sim.timeout(10)

    sim.process(proc())
    sim.run()
    assert res.busy_stat.time_average() == pytest.approx(0.5)


def test_serve_helper_round_trip(sim):
    res = Resource(sim)

    def proc():
        yield from res.serve(7)
        return sim.now

    assert sim.run_process(proc()) == 7
    assert res.count == 0


def test_contention_throughput_matches_theory(sim):
    """p clients hammering one server: completion rate = 1/service."""
    res = Resource(sim)
    completions = []

    def client():
        for _ in range(10):
            yield from res.serve(4)
            completions.append(sim.now)

    for _ in range(5):
        sim.process(client())
    sim.run()
    assert len(completions) == 50
    assert max(completions) == 50 * 4  # fully serialised
