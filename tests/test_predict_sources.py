"""Tests for the per-algorithm profile sources (Figures 1–3 machinery).

The quantitative claims of the retired ``core/predict_*`` predictor
tests, re-asserted through the :mod:`repro.predict` engine.
"""

import numpy as np
import pytest

from repro.algorithms import make_random_list, run_list_ranking, run_prefix_sums, run_sample_sort
from repro.machine.config import MachineConfig
from repro.predict import (
    PhaseProfile,
    make_source,
    predict_value,
    qsm_comm_cycles,
)
from repro.qsmlib import QSMMachine, RunConfig


@pytest.fixture(scope="module")
def machine16():
    qm = QSMMachine(RunConfig())
    return qm.cost_model(), qm.machine.cpus[0]


@pytest.fixture(scope="module")
def sort_run():
    rng = np.random.default_rng(5)
    return run_sample_sort(
        rng.integers(0, 2**62, size=65536), RunConfig(seed=5, check_semantics=False)
    )


@pytest.fixture(scope="module")
def rank_run():
    return run_list_ranking(
        make_random_list(60000, seed=5), RunConfig(seed=5, check_semantics=False)
    )


# ---------------------------------------------------------------------------
# Prefix
# ---------------------------------------------------------------------------
def test_prefix_prediction_independent_of_n(machine16):
    costs, cpu = machine16
    source = make_source("prefix", p=16, cpu=cpu)
    assert predict_value(source, "qsm-best", costs, n=1000) == predict_value(
        source, "qsm-best", costs, n=10**7
    )


def test_prefix_qsm_below_bsp_below_measured(machine16):
    costs, cpu = machine16
    source = make_source("prefix", p=16, cpu=cpu)
    out = run_prefix_sums(np.arange(65536), RunConfig(seed=3, check_semantics=False))
    measured = out.run.comm_cycles
    qsm = predict_value(source, "qsm-best", costs, n=65536)
    bsp = predict_value(source, "bsp-best", costs, n=65536)
    assert qsm < bsp < measured
    source.check_run(out.run)


def test_prefix_absolute_error_small_relative_to_total(machine16):
    """§3.2: the relative comm error is large but the absolute error is
    small compared to total time for sizeable n."""
    costs, cpu = machine16
    source = make_source("prefix", p=16, cpu=cpu)
    n = 2**20
    out = run_prefix_sums(np.arange(n), RunConfig(seed=3, check_semantics=False))
    abs_error = out.run.comm_cycles - predict_value(source, "qsm-best", costs, n=n)
    assert abs_error / out.run.total_cycles < 0.5


def test_prefix_compute_estimate_tracks_measured(machine16):
    costs, cpu = machine16
    source = make_source("prefix", p=16, cpu=cpu)
    n = 2**18
    out = run_prefix_sums(np.arange(n), RunConfig(seed=3, check_semantics=False))
    assert source.compute(n) == pytest.approx(out.run.compute_cycles, rel=0.3)
    qsm_total = source.compute(n) + predict_value(source, "qsm-best", costs, n=n)
    bsp_total = source.compute(n) + predict_value(source, "bsp-best", costs, n=n)
    assert qsm_total < bsp_total


# ---------------------------------------------------------------------------
# Sample sort
# ---------------------------------------------------------------------------
def test_samplesort_estimate_close_at_moderate_n(machine16, sort_run):
    costs, cpu = machine16
    source = make_source("samplesort", p=16, cpu=cpu)
    est = predict_value(source, "qsm-observed", costs, run=sort_run.run)
    assert est == pytest.approx(sort_run.run.comm_cycles, rel=0.25)
    assert est < sort_run.run.comm_cycles  # QSM under-predicts (ignores o, l)


def test_samplesort_bsp_closer_than_qsm(machine16, sort_run):
    costs, cpu = machine16
    source = make_source("samplesort", p=16, cpu=cpu)
    meas = sort_run.run.comm_cycles
    err_qsm = abs(predict_value(source, "qsm-observed", costs, run=sort_run.run) - meas)
    err_bsp = abs(predict_value(source, "bsp-observed", costs, run=sort_run.run) - meas)
    assert err_bsp < err_qsm


def test_samplesort_band_brackets_measurement(machine16, sort_run):
    costs, cpu = machine16
    source = make_source("samplesort", p=16, cpu=cpu)
    n = 65536
    best = predict_value(source, "qsm-best", costs, n=n)
    whp = predict_value(source, "qsm-whp", costs, n=n)
    assert best <= sort_run.run.comm_cycles <= whp


def test_samplesort_best_below_whp_everywhere(machine16):
    costs, cpu = machine16
    source = make_source("samplesort", p=16, cpu=cpu)
    for n in [4096, 65536, 10**6]:
        assert predict_value(source, "qsm-best", costs, n=n) < predict_value(
            source, "qsm-whp", costs, n=n
        )


def test_samplesort_bsp_offset_is_5L(machine16):
    costs, cpu = machine16
    source = make_source("samplesort", p=16, cpu=cpu)
    n = 65536
    offset = predict_value(source, "bsp-best", costs, n=n) - predict_value(
        source, "qsm-best", costs, n=n
    )
    assert offset == pytest.approx(5 * costs.barrier_cycles(16))


def test_samplesort_estimate_matches_generic(machine16, sort_run):
    costs, cpu = machine16
    source = make_source("samplesort", p=16, cpu=cpu)
    run = sort_run.run
    generic = qsm_comm_cycles(PhaseProfile.from_run(run), costs)
    assert predict_value(source, "qsm-observed", costs, run=run) == generic
    assert predict_value(source, "bsp-observed", costs, run=run) == (
        generic + run.n_phases * costs.barrier_cycles(run.p)
    )


def test_samplesort_closed_form_with_observed_skews_close_to_generic(machine16, sort_run):
    """The paper-style closed form fed the observed B and r lands near
    the phase-by-phase estimate."""
    costs, cpu = machine16
    source = make_source("samplesort", p=16, cpu=cpu)
    run = sort_run.run
    B = max(run.observe_values("B"))
    r = max(run.observe_values("r"))
    out_remote = run.phases[4].max_put_words
    profile = PhaseProfile(
        algo="samplesort",
        scenario="best",
        p=16,
        n_syncs=source.n_syncs(65536),
        phases=tuple(source._phases(65536, B, r, out_remote)),
        n=65536.0,
    )
    closed = qsm_comm_cycles(profile, costs)
    generic = qsm_comm_cycles(PhaseProfile.from_run(run), costs)
    assert closed == pytest.approx(generic, rel=0.30)


# ---------------------------------------------------------------------------
# List ranking
# ---------------------------------------------------------------------------
def test_listrank_phase_count_formula(machine16, rank_run):
    costs, cpu = machine16
    source = make_source("listrank", p=16, cpu=cpu)
    assert source.n_syncs(60000) == rank_run.run.n_phases == 69


def test_listrank_estimate_within_15pct_at_60k(machine16, rank_run):
    """The paper's claim: QSM within 15% of measured comm for n >= 60000."""
    costs, cpu = machine16
    source = make_source("listrank", p=16, cpu=cpu)
    est = predict_value(source, "qsm-observed", costs, run=rank_run.run)
    assert est == pytest.approx(rank_run.run.comm_cycles, rel=0.15)


def test_listrank_bsp_closer_than_qsm(machine16, rank_run):
    costs, cpu = machine16
    source = make_source("listrank", p=16, cpu=cpu)
    meas = rank_run.run.comm_cycles
    assert abs(predict_value(source, "bsp-observed", costs, run=rank_run.run) - meas) < abs(
        predict_value(source, "qsm-observed", costs, run=rank_run.run) - meas
    )


def test_listrank_band_brackets_measurement(machine16, rank_run):
    costs, cpu = machine16
    source = make_source("listrank", p=16, cpu=cpu)
    n = 60000
    best = predict_value(source, "qsm-best", costs, n=n)
    whp = predict_value(source, "qsm-whp", costs, n=n)
    assert best <= rank_run.run.comm_cycles <= whp


def test_listrank_best_case_geometric_decay(machine16):
    costs, cpu = machine16
    source = make_source("listrank", p=16, cpu=cpu)
    flips, removals, z_local, z_total, pi = source.best_case_skews(16000)
    assert len(flips) == source.iterations == 16
    assert flips[0] == 500.0  # (n/p)/2
    assert removals[0] == 250.0
    assert flips[1] == pytest.approx(flips[0] * 0.75)
    assert z_local == pytest.approx(1000 * 0.75**16)
    assert pi == 15 / 16


def test_listrank_whp_above_best(machine16):
    costs, cpu = machine16
    source = make_source("listrank", p=16, cpu=cpu)
    for n in [16000, 64000, 256000]:
        assert predict_value(source, "qsm-whp", costs, n=n) > predict_value(
            source, "qsm-best", costs, n=n
        )


def test_listrank_expected_sum_x_closed_form(machine16):
    costs, cpu = machine16
    source = make_source("listrank", p=16, cpu=cpu)
    n = 16000
    flips, removals, *_ = source.best_case_skews(n)
    sum_x = sum(f * 2 for f in flips)
    assert source.expected_sum_x(n) == pytest.approx(sum_x)


def test_sources_on_other_p(machine16):
    """Profile sources stay consistent at other machine sizes."""
    cfg = RunConfig(machine=MachineConfig(p=4), seed=2, check_semantics=False)
    qm = QSMMachine(cfg)
    costs, cpu = qm.cost_model(), qm.machine.cpus[0]
    source = make_source("listrank", p=4, cpu=cpu)
    out = run_list_ranking(make_random_list(20000, seed=2), cfg)
    assert source.n_syncs(20000) == out.run.n_phases
    est = predict_value(source, "qsm-observed", costs, run=out.run)
    assert est == pytest.approx(out.run.comm_cycles, rel=0.35)
