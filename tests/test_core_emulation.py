"""Tests for the QSM-on-BSP emulation cost functions."""

import math

import pytest

from repro.core.emulation import (
    EmulationParams,
    emulation_slowdown,
    qsm_phase_on_bsp,
    qsm_program_on_bsp,
    work_preserving_threshold,
)
from repro.core.params import BSPParams
from repro.predict import PhaseComm, PhaseProfile


BSP = BSPParams(p=4, g=2.0, L=1000.0)


def test_params_validation():
    with pytest.raises(ValueError, match="p' <= p"):
        EmulationParams(p=4, p_prime=8)
    with pytest.raises(ValueError, match="ballast"):
        EmulationParams(p=4, p_prime=4, ballast=0.5)
    assert EmulationParams(p=16, p_prime=4).slack == 4.0


def test_phase_cost_formula():
    emu = EmulationParams(p=8, p_prime=4, ballast=2.0)
    work = PhaseComm(m_op=100, put_words=10, kappa=5)
    # w = 2*100; h = 2*(2*10 + 5) = 50; cost = 200 + 2*50 + 1000
    assert qsm_phase_on_bsp(work, BSP, emu) == 200 + 100 + 1000


def test_program_cost_sums():
    emu = EmulationParams(p=4, p_prime=4)
    phases = [PhaseComm(m_op=10), PhaseComm(m_op=20)]
    assert qsm_program_on_bsp(phases, BSP, emu) == pytest.approx(
        sum(qsm_phase_on_bsp(w, BSP, emu) for w in phases)
    )


def test_slowdown_approaches_constant_for_large_phases():
    """The headline: constant-factor emulation once phases are big."""
    emu = EmulationParams(p=16, p_prime=16, ballast=2.0)
    tiny = [PhaseComm(m_op=10, put_words=5)] * 4
    huge = [PhaseComm(m_op=10**7, put_words=5 * 10**6)] * 4
    assert emulation_slowdown(tiny, BSP, emu) > 10
    # Balanced compute/comm phases converge to 1 + ballast (the emulated
    # time sums work and hashed traffic where the QSM cost takes a max).
    assert emulation_slowdown(huge, BSP, emu) < 3.1
    # Compute-dominated phases emulate essentially for free.
    compute_heavy = [PhaseComm(m_op=10**8, put_words=100)] * 4
    assert emulation_slowdown(compute_heavy, BSP, emu) < 1.1


def test_slowdown_monotone_in_phase_size():
    emu = EmulationParams(p=16, p_prime=16)
    sizes = [10, 100, 1000, 10**5, 10**7]
    slowdowns = [
        emulation_slowdown([PhaseComm(m_op=s, put_words=s // 2)], BSP, emu) for s in sizes
    ]
    assert slowdowns == sorted(slowdowns, reverse=True)


def test_slowdown_empty_or_zero():
    emu = EmulationParams(p=4, p_prime=4)
    with pytest.raises(ValueError):
        emulation_slowdown([], BSP, emu)
    assert emulation_slowdown([PhaseComm()], BSP, emu) == math.inf


def test_threshold_consistent_with_slowdown():
    emu = EmulationParams(p=16, p_prime=16, ballast=2.0)
    factor = 3.0
    c_min = work_preserving_threshold(BSP, emu, factor=factor)
    # A program whose every phase costs >= c_min stays within `factor`.
    work = PhaseComm(m_op=c_min * 1.01)
    assert emulation_slowdown([work], BSP, emu) <= factor * 1.01
    # ...and one far below it does not.
    small = PhaseComm(m_op=c_min / 50)
    assert emulation_slowdown([small], BSP, emu) > factor


def test_threshold_infinite_below_ballast():
    emu = EmulationParams(p=4, p_prime=4, ballast=2.0)
    assert work_preserving_threshold(BSP, emu, factor=1.5) == math.inf


def test_emulation_on_measured_run():
    """Feed a real measured phase log through the emulation: large-n
    sample sort emulates within a small constant; the overhead-dominated
    prefix run does not."""
    import numpy as np

    from repro.algorithms import run_prefix_sums, run_sample_sort
    from repro.qsmlib import QSMMachine, RunConfig

    qm = QSMMachine(RunConfig())
    costs = qm.cost_model()
    g_word = costs.put_word_cycles  # conservative per-word gap
    bsp = BSPParams(p=16, g=g_word, L=costs.barrier_cycles(16))
    emu = EmulationParams(p=16, p_prime=16, ballast=2.0)

    rng = np.random.default_rng(3)
    sort = run_sample_sort(
        rng.integers(0, 2**62, size=125000), RunConfig(seed=3, check_semantics=False)
    )
    sort_phases = PhaseProfile.from_run(sort.run).phases
    assert emulation_slowdown(sort_phases, bsp, emu) < 3.0

    prefix = run_prefix_sums(np.arange(4096), RunConfig(seed=3, check_semantics=False))
    prefix_phases = PhaseProfile.from_run(prefix.run).phases
    assert emulation_slowdown(prefix_phases, bsp, emu) > 2.0
