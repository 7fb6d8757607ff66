"""Tests for the §4 memory-bank contention simulator."""

import math
from unittest import mock

import numpy as np
import pytest

from repro.membank import (
    AccessPattern,
    CONFLICT,
    MEMBANK_MACHINES,
    MemoryMachineConfig,
    NOCONFLICT,
    RANDOM,
    cray_t3e,
    now_bsplib,
    run_microbenchmark,
    smp_bsplib_l1,
    smp_bsplib_l2,
    smp_native,
)
from repro.membank import microbench
from repro.membank.interconnect import BusInterconnect, EthernetInterconnect, TorusInterconnect
from repro.membank.kernel import DELAY, replay
from repro.membank.microbench import pattern_sweep


def _machine(p=1, n_banks=4, service_cycles=10.0, **kwargs):
    """A tiny machine on an interconnect that costs nothing."""
    free = TorusInterconnect(n_nodes=1, hop_cycles=0.0, inject_cycles=0.0)
    return MemoryMachineConfig(
        name="tiny",
        p=p,
        n_banks=n_banks,
        bank_service_cycles=service_cycles,
        software_cycles=0.0,
        make_interconnect=lambda: free,
        **kwargs,
    )


def _always(bank):
    return AccessPattern(f"bank{bank}", lambda rng, pid, n_banks, count: np.full(count, bank))


# ---------------------------------------------------------------------------
# Banks (single-slot resources in the kernel)
# ---------------------------------------------------------------------------
def test_bank_array_validation():
    with pytest.raises(ValueError):
        _machine(n_banks=0)
    with pytest.raises(ValueError):
        _machine(n_banks=4, service_cycles=0.0)
    with pytest.raises(ValueError):
        run_microbenchmark(_machine(n_banks=4), _always(7), accesses_per_proc=1)


@pytest.mark.parametrize("bank", [-1, 4])
def test_out_of_range_bank_rejected_before_simulating(bank):
    with mock.patch.object(microbench, "replay", side_effect=AssertionError("simulated")):
        with pytest.raises(ValueError, match="out of range"):
            run_microbenchmark(_machine(n_banks=4), _always(bank), accesses_per_proc=3)


@pytest.mark.parametrize("clock_hz", [0.0, -166e6])
def test_clock_must_be_positive(clock_hz):
    with pytest.raises(ValueError, match="clock_hz"):
        _machine(clock_hz=clock_hz)


@pytest.mark.parametrize(
    "field, value",
    [
        ("bank_service_cycles", math.nan),
        ("bank_service_cycles", math.inf),
        ("software_cycles", math.nan),
        ("software_cycles", math.inf),
        ("clock_hz", math.nan),
        ("clock_hz", math.inf),
    ],
)
def test_machine_config_rejects_non_finite(field, value):
    fields = {"bank_service_cycles": 10.0, "software_cycles": 0.0, field: value}
    with pytest.raises(ValueError, match=field):
        MemoryMachineConfig(
            name="tiny",
            p=1,
            n_banks=4,
            make_interconnect=lambda: TorusInterconnect(1, 0.0, 0.0),
            **fields,
        )


def test_bank_serializes_accesses():
    run = replay((1, 1), [[((0, 10.0),)]] * 4)
    assert run.now == 40.0  # fully serialised at bank 0


def test_distinct_banks_parallel():
    run = replay((1,) * 4, [[((b, 10.0),)] for b in range(4)])
    assert run.now == 10.0


def test_bank_utilization():
    run = replay((1, 1), [[((0, 10.0), (DELAY, 10))]])
    assert run.utilization(0) == pytest.approx(0.5)
    assert run.utilization(1) == 0.0


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------
def test_conflict_always_bank_zero(rng):
    assert (CONFLICT.choose(rng, 3, 8, 100) == 0).all()


def test_noconflict_distinct_banks(rng):
    targets = {int(NOCONFLICT.choose(rng, pid, 8, 1)[0]) for pid in range(8)}
    assert len(targets) == 8


def test_random_spreads(rng):
    picks = RANDOM.choose(rng, 0, 8, 8000)
    counts = np.bincount(picks, minlength=8)
    assert counts.min() > 800


# ---------------------------------------------------------------------------
# Interconnects
# ---------------------------------------------------------------------------
def test_bus_contention():
    bus = BusInterconnect(occupancy_cycles=10.0, width=1)
    run = replay(bus.capacities, [[bus.trip(0, 0)]] * 3)
    assert run.now == 30.0


def test_ethernet_ingress_is_the_hot_spot():
    eth = EthernetInterconnect(n_nodes=4, frame_cycles=100.0, stack_cycles=0.0)
    run = replay(eth.capacities, [[eth.trip(src, 0)] for src in range(1, 4)])
    # egress links run in parallel (100), then three frames serialise on
    # node 0's ingress link (300)
    assert run.now == pytest.approx(400.0, rel=0.01)


def test_torus_hops_scale_with_size():
    small = TorusInterconnect(n_nodes=8, hop_cycles=10.0, inject_cycles=0.0)
    large = TorusInterconnect(n_nodes=512, hop_cycles=10.0, inject_cycles=0.0)
    assert large.avg_hops > small.avg_hops


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: BusInterconnect(occupancy_cycles=0.0), id="bus-zero"),
        pytest.param(lambda: BusInterconnect(occupancy_cycles=math.nan), id="bus-nan"),
        pytest.param(lambda: BusInterconnect(occupancy_cycles=math.inf), id="bus-inf"),
        pytest.param(
            lambda: EthernetInterconnect(n_nodes=0, frame_cycles=1.0, stack_cycles=0.0),
            id="ethernet-no-nodes",
        ),
        pytest.param(
            lambda: EthernetInterconnect(n_nodes=4, frame_cycles=math.inf, stack_cycles=1.0),
            id="ethernet-frame-inf",
        ),
        pytest.param(
            lambda: EthernetInterconnect(n_nodes=4, frame_cycles=1.0, stack_cycles=math.nan),
            id="ethernet-stack-nan",
        ),
        pytest.param(
            lambda: EthernetInterconnect(
                n_nodes=4, frame_cycles=1.0, stack_cycles=0.0, propagation_cycles=math.inf
            ),
            id="ethernet-propagation-inf",
        ),
        pytest.param(
            lambda: TorusInterconnect(n_nodes=4, hop_cycles=-1.0, inject_cycles=0.0),
            id="torus-negative-hop",
        ),
        pytest.param(
            lambda: TorusInterconnect(n_nodes=4, hop_cycles=math.nan, inject_cycles=1.0),
            id="torus-hop-nan",
        ),
        pytest.param(
            lambda: TorusInterconnect(n_nodes=4, hop_cycles=1.0, inject_cycles=math.inf),
            id="torus-inject-inf",
        ),
    ],
)
def test_interconnect_validation(build):
    with pytest.raises(ValueError):
        build()


# ---------------------------------------------------------------------------
# Machines & microbenchmark
# ---------------------------------------------------------------------------
def test_machine_presets_constructible():
    for factory in MEMBANK_MACHINES.values():
        cfg = factory()
        assert cfg.p >= 1 and cfg.n_banks >= 1


def test_microbench_basic_result():
    res = run_microbenchmark(smp_native(), RANDOM, accesses_per_proc=300, seed=1)
    assert res.mean_access_cycles > 0
    assert res.mean_access_us == pytest.approx(
        res.mean_access_cycles / 166e6 * 1e6
    )
    assert res.per_proc_mean_cycles.shape == (8,)


def test_microbench_validation():
    with pytest.raises(ValueError):
        run_microbenchmark(smp_native(), RANDOM, accesses_per_proc=0)
    with pytest.raises(ValueError):
        run_microbenchmark(smp_native(), RANDOM, accesses_per_proc=10, warmup=10)
    with pytest.raises(ValueError):
        run_microbenchmark(smp_native(), RANDOM, accesses_per_proc=10, warmup=-1)


def test_microbench_deterministic():
    a = run_microbenchmark(smp_native(), RANDOM, accesses_per_proc=200, seed=9)
    b = run_microbenchmark(smp_native(), RANDOM, accesses_per_proc=200, seed=9)
    assert a.mean_access_cycles == b.mean_access_cycles


@pytest.mark.parametrize("factory", [smp_native, cray_t3e, now_bsplib])
def test_pattern_ordering_noconflict_random_conflict(factory):
    """Figure 7's core shape on the hardware-shared-memory platforms."""
    res = pattern_sweep(factory(), [NOCONFLICT, RANDOM, CONFLICT], accesses_per_proc=600)
    nc = res["NoConflict"].mean_access_cycles
    rd = res["Random"].mean_access_cycles
    cf = res["Conflict"].mean_access_cycles
    assert nc <= rd * 1.01  # random never beats the hand layout (noise margin)
    assert cf > rd


@pytest.mark.parametrize("factory", [smp_native, cray_t3e])
def test_conflict_factor_two_to_four(factory):
    """§4: Conflict runs a factor of 2-4 worse than NoConflict."""
    res = pattern_sweep(factory(), [NOCONFLICT, CONFLICT], accesses_per_proc=600)
    ratio = res["Conflict"].mean_access_cycles / res["NoConflict"].mean_access_cycles
    assert 2.0 <= ratio <= 4.6


def test_random_within_68pct_of_noconflict():
    """§4: NoConflict beats Random by 0-68%."""
    for factory in [smp_native, cray_t3e, now_bsplib]:
        res = pattern_sweep(factory(), [NOCONFLICT, RANDOM], accesses_per_proc=600)
        speedup = res["Random"].mean_access_cycles / res["NoConflict"].mean_access_cycles - 1
        assert -0.01 <= speedup <= 0.68, factory.__name__


def test_bsplib_layers_add_overhead():
    nat = run_microbenchmark(smp_native(), RANDOM, accesses_per_proc=400)
    l2 = run_microbenchmark(smp_bsplib_l2(), RANDOM, accesses_per_proc=400)
    l1 = run_microbenchmark(smp_bsplib_l1(), RANDOM, accesses_per_proc=400)
    assert nat.mean_access_cycles < l2.mean_access_cycles < l1.mean_access_cycles


def test_conflict_bank_utilization_saturates():
    res = run_microbenchmark(smp_native(), CONFLICT, accesses_per_proc=400)
    assert res.max_bank_utilization > 0.9


def test_now_cluster_is_orders_of_magnitude_slower():
    smp = run_microbenchmark(smp_native(), RANDOM, accesses_per_proc=300)
    now = run_microbenchmark(now_bsplib(), RANDOM, accesses_per_proc=300)
    assert now.mean_access_us > 100 * smp.mean_access_us
