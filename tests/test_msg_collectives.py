"""Tests for the binary-tree barrier the sync engine runs.

The barrier is :meth:`~repro.qsmlib.runtime.SyncEngine._barrier`,
driven the way ``table3_observed.measure_barrier`` drives it: one
process per node on a bare machine.  With no software cycles per hop
its time is exactly the closed form
:func:`~repro.msg.collectives.tree_barrier_cost_estimate`.
"""

import pytest

from repro.experiments.table3_observed import measure_barrier
from repro.machine.cluster import Machine
from repro.machine.config import MachineConfig, NetworkConfig
from repro.msg.collectives import tree_barrier_cost_estimate, tree_depth
from repro.msg.mp import make_endpoints
from repro.qsmlib import SoftwareConfig
from repro.qsmlib.runtime import SyncEngine


def build(p):
    machine = Machine(MachineConfig(p=p))
    eps = make_endpoints(machine.network)
    engine = SyncEngine(machine, eps, SoftwareConfig(barrier_hop_cycles=0.0))
    return machine.sim, eps, engine


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 16])
def test_barrier_completes_for_any_p(p):
    sim, eps, engine = build(p)
    done = []

    def node(pid):
        yield from engine._barrier(eps[pid], p, ("bar", 0))
        done.append(pid)

    for pid in range(p):
        sim.process(node(pid))
    sim.run()
    assert sorted(done) == list(range(p))


def test_barrier_actually_synchronizes():
    """No node may pass the barrier before every node has entered it."""
    p = 8
    sim, eps, engine = build(p)
    enter, exit_ = {}, {}

    def node(pid):
        yield sim.timeout(pid * 1000)  # staggered arrival
        enter[pid] = sim.now
        yield from engine._barrier(eps[pid], p, ("bar", 0))
        exit_[pid] = sim.now

    for pid in range(p):
        sim.process(node(pid))
    sim.run()
    assert min(exit_.values()) >= max(enter.values())


def test_consecutive_barriers_with_distinct_seq():
    p = 4
    sim, eps, engine = build(p)
    laps = {pid: 0 for pid in range(p)}

    def node(pid):
        for seq in range(3):
            yield from engine._barrier(eps[pid], p, ("bar", seq))
            laps[pid] += 1

    for pid in range(p):
        sim.process(node(pid))
    sim.run()
    assert all(v == 3 for v in laps.values())


def test_tree_depth():
    assert tree_depth(1) == 0
    assert tree_depth(2) == 1
    assert tree_depth(16) == 4
    assert tree_depth(17) == 4
    with pytest.raises(ValueError):
        tree_depth(0)


@pytest.mark.parametrize("p", [2, 4, 8, 16])
def test_barrier_cost_estimate_matches_des(p):
    """The hardware-only closed form equals the DES time without sw hops."""
    no_hops = SoftwareConfig(barrier_hop_cycles=0.0)
    assert measure_barrier(p, no_hops) == tree_barrier_cost_estimate(NetworkConfig(), p)


def test_barrier_cost_grows_with_p():
    costs = [tree_barrier_cost_estimate(NetworkConfig(), p) for p in [2, 4, 16, 64]]
    assert costs == sorted(costs)
