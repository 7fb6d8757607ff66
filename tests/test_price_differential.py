"""Pricing a recorded run against running it fresh, on generated inputs.

Every case records one program on machine A, then prices the recorded
run (:func:`repro.qsmlib.price_run`) on machine B and runs the program
fresh on B.  The two runs on B must agree in every ``PhaseRecord``
field, the returns, the observations, the trailing compute, the kernel
event count and the fault tally, and with observability on, in every
``qsm.*`` span.  Programs are the epoch differential's generated SPMD
programs plus sample sort, list ranking and prefix sums at small n.  B
differs from A in what only pricing reads:

* ``l``, ``o`` and ``g``, and a flat or cluster topology;
* the fault plan: none, drops with jitter (which moves the exchange
  onto the per-message oracle), or stragglers (which stay on epoch);
* the sync path, epoch or the oracle.
"""

import re
from contextlib import contextmanager
from dataclasses import fields, replace
from typing import List, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import faults, obs
from repro.algorithms.listrank import make_random_list, run_list_ranking
from repro.algorithms.prefix import run_prefix_sums
from repro.algorithms.samplesort import run_sample_sort
from repro.faults.plan import FaultPlan
from repro.machine.config import (
    ClusterTopology,
    FlatTopology,
    MachineConfig,
    NetworkConfig,
    NodeConfig,
)
from repro.qsmlib import QSMMachine, RunConfig, RunResult, SoftwareConfig, price_run
from tests.test_epoch_differential import SLOWISH, SLOT, Case, _config, _program, cases

PROGRAMS = ("generated", "samplesort", "listrank", "prefix")
FAULTS = ("none", "drop", "stragglers")

#: Elements per processor for the three algorithms.
PER_PROC = 160


class Pricing(NamedTuple):
    program: str
    #: Machine A, the generated program and whether spans are compared.
    case: Case
    #: Machine B: its network, topology (0 = flat), faults and sync path.
    latency: float
    overhead: float
    gap: float
    cores_per_node: int
    faults: str
    sync_path: str


@st.composite
def pricings(draw):
    case = draw(cases())
    divisors = [c for c in range(1, case.p + 1) if case.p % c == 0]
    return Pricing(
        program=draw(st.sampled_from(PROGRAMS)),
        case=case,
        latency=draw(st.sampled_from([0.0, 400.0, 1600.0, 25600.0])),
        overhead=draw(st.sampled_from([0.0, 100.0, 400.0, 6400.0])),
        gap=draw(st.sampled_from([3.0, 0.37, 12.0])),
        cores_per_node=draw(st.sampled_from([0, 0] + divisors)),
        faults=draw(st.sampled_from(FAULTS)),
        sync_path=draw(st.sampled_from(["epoch", "slow"])),
    )


def _machine_b(pricing: Pricing) -> RunConfig:
    """Machine A's config with B's priced-half fields."""
    a = _config(pricing.case, "epoch")
    topology = (
        ClusterTopology(cores_per_node=pricing.cores_per_node)
        if pricing.cores_per_node
        else FlatTopology()
    )
    plan = {
        "none": None,
        "drop": FaultPlan(seed=3, drop_prob=0.05, delay_jitter_cycles=200.0),
        "stragglers": FaultPlan(seed=4, straggler_count=2, straggler_slowdown=3.0),
    }[pricing.faults]
    machine = MachineConfig(
        p=a.machine.p,
        node=a.machine.node,
        network=NetworkConfig(
            gap_cycles_per_byte=pricing.gap,
            overhead_cycles=pricing.overhead,
            latency_cycles=pricing.latency,
        ),
        faults=plan,
        topology=topology,
    )
    software = _config(pricing.case, pricing.sync_path).software
    return RunConfig(machine=machine, software=software, seed=a.seed)


@contextmanager
def _machines():
    """Collect every QSMMachine built inside the block."""
    built: List[QSMMachine] = []
    init = QSMMachine.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    with mock.patch.object(QSMMachine, "__init__", spy):
        yield built


def _run(program: str, case: Case, config: RunConfig) -> RunResult:
    """Run *program* fresh on *config*."""
    p, seed = case.p, case.seed
    n = PER_PROC * p
    if program == "generated":
        qm = QSMMachine(config)
        src = qm.allocate("src", 8 * p)
        src.data[:] = np.arange(8 * p) * 3 + 1
        dst = qm.allocate("dst", p * p * SLOT)
        step = case.overhead + 56 * case.gap
        return qm.run(_program, src=src, dst=dst, phases=case.phases, seed=seed, step=step)
    if program == "samplesort":
        keys = np.random.default_rng(seed).integers(0, 2**40, size=n)
        return run_sample_sort(keys, config).run
    if program == "listrank":
        return run_list_ranking(make_random_list(n, seed=seed), config).run
    return run_prefix_sums(np.random.default_rng(seed).integers(-50, 50, size=n), config).run


def _spans() -> list:
    """The last run's ``qsm.*`` spans, in one order for both paths."""
    spans = [
        (s.track, s.t0, s.depth, s.name, s.t1, s.attrs)
        for s in obs.runs()[-1].spans
        if s.name.startswith("qsm.")
    ]
    return sorted(spans, key=lambda span: span[:5])


def assert_same_run(got: RunResult, want: RunResult) -> None:
    """*got* equals *want* in every measured field."""
    assert (got.p, got.seed, got.n_phases) == (want.p, want.seed, want.n_phases)
    for mine, theirs in zip(got.phases, want.phases):
        for f in fields(mine):
            a, b = getattr(mine, f.name), getattr(theirs, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), (mine.index, f.name)
            else:
                assert a == b, (mine.index, f.name, a, b)
    assert got.returns == want.returns
    assert got.observations == want.observations
    assert got.trailing_compute_cycles == want.trailing_compute_cycles
    assert got.sim_events == want.sim_events


def _check(pricing: Pricing) -> None:
    case = pricing.case
    a, b = _config(case, "epoch"), _machine_b(pricing)
    if case.traced:
        obs.enable()
    faults.reset_tally()
    try:
        with _machines() as built:
            recorded = _run(pricing.program, case, a)
        traffic = built[-1].traffic
        assert len(traffic) == recorded.n_phases
        faults.reset_tally()
        fresh = _run(pricing.program, case, b)
        fresh_tally = faults.drain_tally()
        fresh_spans = _spans() if case.traced else None
        priced = price_run(recorded, traffic, b)
        assert faults.drain_tally() == fresh_tally
        if case.traced:
            assert _spans() == fresh_spans
    finally:
        if case.traced:
            obs.disable()
    assert_same_run(priced, fresh)


#: Sample sort on a 6-node cluster with drops: the oracle prices it.
SORT_DROPS = Pricing(
    "samplesort",
    Case(6, 0, 1600.0, 400.0, 3.0, "staggered", 311.0, 500.0,
         (("uniform", "equal", 3),), 1, True),
    25600.0, 100.0, 3.0, 3, "drop", "epoch",
)
#: List ranking with two stragglers, priced on the epoch kernel.
RANK_STRAGGLERS = Pricing(
    "listrank",
    Case(6, 0, 1600.0, 400.0, 3.0, "fixed", 0.0, 0.0,
         (("uniform", "equal", 3),), 7, False),
    400.0, 6400.0, 0.37, 0, "stragglers", "epoch",
)
#: A generated program recorded on a cluster, priced flat on the oracle.
CLUSTER_TO_FLAT = Pricing(
    "generated",
    Case(8, 4, 0.0, 13.0, 1.25, "staggered", 311.0, 500.0,
         (("skewed", "straggler", 4), ("hot", "stepped", 2)), 23, True),
    1600.0, 400.0, 3.0, 0, "none", "slow",
)


@example(pricing=SORT_DROPS)
@example(pricing=RANK_STRAGGLERS)
@example(pricing=CLUSTER_TO_FLAT)
@given(pricing=pricings())
@SLOWISH
def test_priced_run_equals_a_fresh_run(pricing):
    _check(pricing)


@pytest.mark.parametrize("program", PROGRAMS)
def test_int_valued_software_prices_as_the_oracle(program):
    """Software fields may hold ints where the defaults are floats.  The
    chunk layout keeps record counts in narrow dtypes, so the epoch
    kernel must still price ``records * marshal`` as the oracle's Python
    ints do (16 records of 100 cycles are 1600, not 64 in uint8), fresh
    and priced on another network."""
    case = RANK_STRAGGLERS.case
    ints = {"marshal_record_cycles": 100, "unmarshal_record_cycles": 7}
    a = _config(case, "epoch")
    a = replace(a, software=replace(a.software, **ints))
    b = replace(a, machine=a.machine.with_network(latency_cycles=400.0, gap_cycles_per_byte=12))
    with _machines() as built:
        recorded = _run(program, case, a)
    traffic = built[-1].traffic
    for got, config in ((recorded, a), (price_run(recorded, traffic, b), b)):
        oracle = _run(program, case, replace(config, software=replace(a.software, sync_path="slow")))
        oracle.sim_events = got.sim_events
        assert_same_run(got, oracle)


def test_pricing_needs_the_recorded_p_and_seed():
    config = RunConfig(MachineConfig(p=4), seed=3)
    with _machines() as built:
        recorded = run_prefix_sums(np.arange(64), config).run
    traffic = built[-1].traffic
    for other in (RunConfig(MachineConfig(p=8), seed=3), RunConfig(MachineConfig(p=4), seed=4)):
        with pytest.raises(ValueError, match="cannot be priced"):
            price_run(recorded, traffic, other)
    with pytest.raises(ValueError, match="phases of traffic"):
        price_run(recorded, traffic[:-1], config)


def test_pricing_needs_the_recorded_node_and_software_config():
    """The compute charges and the chunk layout belong to the node and
    software configs a run was recorded with, so pricing it under others
    raises, naming the field; values that compare equal but are not the
    same (``-0.0`` for ``0.0``) differ too.  What pricing reads (network,
    topology, fault plan, sync path) may differ."""
    config = RunConfig(MachineConfig(p=4), seed=3)
    with _machines() as built:
        recorded = run_prefix_sums(np.arange(64), config).run
    traffic = built[-1].traffic
    machine = config.machine
    others = {
        "machine.node.issue_width": replace(
            config, machine=replace(machine, node=NodeConfig(issue_width=2))
        ),
        "software.marshal_record_cycles": replace(
            config, software=SoftwareConfig(marshal_record_cycles=101.0)
        ),
        "software.send_pacing_cycles": replace(
            config, software=SoftwareConfig(send_pacing_cycles=-0.0)
        ),
        "check_semantics": replace(config, check_semantics=False),
    }
    for name, other in others.items():
        with pytest.raises(ValueError, match=rf"recorded with {re.escape(name)}="):
            price_run(recorded, traffic, other)
    priced_machine = machine.with_network(latency_cycles=400.0).with_topology(
        ClusterTopology(cores_per_node=2)
    ).with_faults(FaultPlan(seed=1, drop_prob=0.05))
    other = RunConfig(priced_machine, software=SoftwareConfig(sync_path="slow"), seed=3)
    fresh = run_prefix_sums(np.arange(64), other).run
    assert_same_run(price_run(recorded, traffic, other), fresh)
