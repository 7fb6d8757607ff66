"""Tests for the PRAM comparison extension (§2.1)."""

import numpy as np
import pytest

from repro.algorithms import run_prefix_sums, run_prefix_sums_pram, sequential_prefix_sums
from repro.core.pram import (
    AccessRule,
    PRAMAccessError,
    PRAMModel,
    PRAMParams,
    pram_vs_qsm_phase_gap,
)
from repro.machine.config import MachineConfig
from repro.predict import PhaseComm
from repro.qsmlib import QSMMachine, RunConfig


def test_pram_phase_cost_is_unit_ops_plus_accesses():
    model = PRAMModel(PRAMParams(p=8, rule=AccessRule.CRCW))
    assert model.phase_cost(PhaseComm(m_op=10, put_words=5, kappa=7)) == 15


def test_pram_ignores_everything_the_other_models_charge():
    """No g, no L, no o, no l: two phases differing only in kappa cost
    the same under CRCW."""
    model = PRAMModel(PRAMParams(p=8, rule=AccessRule.CRCW))
    a = PhaseComm(m_op=10, put_words=5, kappa=1)
    b = PhaseComm(m_op=10, put_words=5, kappa=1000)
    assert model.phase_cost(a) == model.phase_cost(b)


def test_erew_rejects_concurrent_access():
    model = PRAMModel(PRAMParams(p=8, rule=AccessRule.EREW))
    with pytest.raises(PRAMAccessError, match="kappa"):
        model.phase_cost(PhaseComm(m_op=1, put_words=1, kappa=2))
    assert model.phase_cost(PhaseComm(m_op=1, put_words=1, kappa=1)) == 2


def test_crew_allows_read_contention():
    model = PRAMModel(PRAMParams(p=8, rule=AccessRule.CREW))
    assert model.phase_cost(PhaseComm(m_op=1, put_words=1, kappa=8)) == 2


def test_program_cost_sums():
    model = PRAMModel(PRAMParams(p=4))
    phases = [PhaseComm(m_op=3), PhaseComm(put_words=4)]
    assert model.program_cost(phases) == 7


def test_phase_gap_helper():
    assert pram_vs_qsm_phase_gap(5, 1, 1000.0) == 4000.0
    with pytest.raises(ValueError):
        pram_vs_qsm_phase_gap(1, 5, 1000.0)


def test_params_validation():
    with pytest.raises(ValueError):
        PRAMParams(p=0)


# ---------------------------------------------------------------------------
# The PRAM-style prefix sums program
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n,p", [(64, 4), (1000, 16), (17, 16), (256, 1), (100, 8)])
def test_pram_prefix_matches_sequential(n, p, rng):
    values = rng.integers(-100, 100, size=n)
    cfg = RunConfig(machine=MachineConfig(p=p), seed=1)
    out = run_prefix_sums_pram(values, cfg)
    assert np.array_equal(out.result, sequential_prefix_sums(values))


def test_pram_prefix_phase_count():
    """1 totals barrier + ceil(log2 p) scan rounds."""
    import math

    for p in [2, 4, 16]:
        cfg = RunConfig(machine=MachineConfig(p=p), seed=1)
        out = run_prefix_sums_pram(np.arange(p * 4), cfg)
        assert out.run.n_phases == 1 + math.ceil(math.log2(p))


def test_pram_style_costs_more_sync_on_the_real_machine():
    """§2.1's claim quantified: same answer, ~(extra phases)·floor more
    communication time than the one-phase QSM formulation."""
    values = np.arange(65536)
    cfg = lambda: RunConfig(seed=1, check_semantics=False)  # noqa: E731
    qsm = run_prefix_sums(values, cfg())
    pram = run_prefix_sums_pram(values, cfg())
    assert np.array_equal(qsm.result, pram.result)
    assert pram.run.n_phases == 5 and qsm.run.n_phases == 1
    assert pram.run.comm_cycles > 3 * qsm.run.comm_cycles

    qm = QSMMachine(RunConfig())
    floor = qm.cost_model().sync_floor_cycles(16)
    predicted_gap = pram_vs_qsm_phase_gap(pram.run.n_phases, qsm.run.n_phases, floor)
    actual_gap = pram.run.comm_cycles - qsm.run.comm_cycles
    assert actual_gap == pytest.approx(predicted_gap, rel=0.35)
