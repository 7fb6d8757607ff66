"""Cross-validation of the analytic membank queueing model vs. the simulation."""

import pytest

from repro.membank import (
    AnalyticAccessModel,
    CONFLICT,
    MEMBANK_MACHINES,
    NOCONFLICT,
    RANDOM,
    run_microbenchmark,
)
from repro.membank.machines import cray_t3e, now_bsplib, smp_native


@pytest.mark.parametrize("factory_name", list(MEMBANK_MACHINES))
@pytest.mark.parametrize("pattern", [NOCONFLICT, RANDOM, CONFLICT])
def test_analytic_matches_des_within_10pct(factory_name, pattern):
    cfg = MEMBANK_MACHINES[factory_name]()
    model = AnalyticAccessModel.for_machine(cfg)
    des = run_microbenchmark(cfg, pattern, accesses_per_proc=800).mean_access_cycles
    assert model.predict(pattern) == pytest.approx(des, rel=0.10), factory_name


@pytest.mark.parametrize(
    "factory_name, cycles",
    [
        ("SMP-NATIVE", 8.0),
        ("SMP-BSPlib-L2", 8.0),
        ("SMP-BSPlib-L1", 8.0),
        ("NOW-BSPlib", 88000.0),
        ("Cray-T3E", 76.5),
    ],
)
def test_interconnect_cycles_pinned(factory_name, cycles):
    """The solo round trip, summed from the stages, is what the
    generator-process model timed."""
    model = AnalyticAccessModel.for_machine(MEMBANK_MACHINES[factory_name]())
    assert model.interconnect_cycles == cycles


def test_path_decomposition():
    cfg = smp_native()
    model = AnalyticAccessModel.for_machine(cfg)
    assert model.path_cycles == pytest.approx(
        cfg.software_cycles + model.interconnect_cycles + cfg.bank_service_cycles
    )
    assert model.interconnect_cycles > 0


def test_conflict_bound_dominated_by_hot_stage():
    smp = AnalyticAccessModel.for_machine(smp_native())
    # SMP: the bank is the hot stage.
    assert smp.conflict_cycles() == pytest.approx(8 * smp.config.bank_service_cycles)
    now = AnalyticAccessModel.for_machine(now_bsplib())
    # NOW: the hot node's link dominates its protocol stack.
    assert now.target_occupancy_cycles > now.config.bank_service_cycles
    assert now.conflict_cycles() == pytest.approx(16 * now.target_occupancy_cycles)


def test_shared_bus_bound_only_on_bus_machines():
    assert AnalyticAccessModel.for_machine(smp_native()).shared_stage_bound > 0
    assert AnalyticAccessModel.for_machine(cray_t3e()).shared_stage_bound == 0
    assert AnalyticAccessModel.for_machine(now_bsplib()).shared_stage_bound == 0


def test_pattern_ordering_holds_analytically():
    for factory in MEMBANK_MACHINES.values():
        model = AnalyticAccessModel.for_machine(factory())
        nc = model.noconflict_cycles()
        rd = model.random_cycles()
        cf = model.conflict_cycles()
        assert nc <= rd <= cf


def test_random_wait_grows_with_clients_per_bank():
    model = AnalyticAccessModel.for_machine(smp_native())
    light = model._fixed_point_wait(clients_per_bank=0.25) - model.path_cycles
    heavy = model._fixed_point_wait(clients_per_bank=1.0) - model.path_cycles
    assert heavy > light >= 0


def test_unknown_pattern_rejected():
    from repro.membank.patterns import AccessPattern

    model = AnalyticAccessModel.for_machine(smp_native())
    weird = AccessPattern("Weird", lambda rng, pid, b, n: None)
    with pytest.raises(ValueError, match="no analytic prediction"):
        model.predict(weird)


def test_predict_us_unit_conversion():
    model = AnalyticAccessModel.for_machine(smp_native())
    cycles = model.predict(NOCONFLICT)
    assert model.predict_us(NOCONFLICT) == pytest.approx(cycles / 166e6 * 1e6)
