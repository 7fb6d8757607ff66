"""Parameter counts of the three models (§2.1), and the BSP set.

QSM prices a phase from ``(p, g)`` alone; BSP adds the barrier ``L``;
LogP adds the per-message overhead ``o`` and the latency ``l``.  The
registry's evaluators keep that split: changing ``l`` or ``o`` moves
the BSP and LogP prices and never the QSM one.
"""

import dataclasses

import pytest

from repro.core.params import BSPParams
from repro.machine.config import MachineConfig, NetworkConfig
from repro.predict import (
    PhaseComm,
    PhaseProfile,
    bsp_comm_cycles,
    logp_comm_cycles,
    qsm_comm_cycles,
)
from repro.qsmlib import QSMMachine, RunConfig

NET = NetworkConfig()
PROFILE = PhaseProfile(
    algo="t",
    scenario="best",
    p=16,
    n_syncs=2,
    phases=(PhaseComm(put_words=100.0, messages=15.0), PhaseComm(get_words=40.0, messages=15.0)),
)


def _costs(**network):
    machine = MachineConfig(network=dataclasses.replace(NET, **network))
    return QSMMachine(RunConfig(machine=machine, check_semantics=False)).cost_model()


def test_qsm_has_exactly_two_architectural_parameters():
    """The paper's headline: QSM exposes only p and g, so latency and
    per-message overhead leave its price unchanged while BSP's moves."""
    base = _costs()
    for changed in (
        _costs(latency_cycles=4 * NET.latency_cycles),
        _costs(overhead_cycles=4 * NET.overhead_cycles),
    ):
        assert qsm_comm_cycles(PROFILE, changed) == qsm_comm_cycles(PROFILE, base)
        assert bsp_comm_cycles(PROFILE, changed) > bsp_comm_cycles(PROFILE, base)


def test_bsp_adds_L():
    assert [f.name for f in dataclasses.fields(BSPParams)] == ["p", "g", "L"]


def test_logp_has_four():
    """LogP's price moves with each of l, o and g (p sets the message
    counts of the profile)."""
    base = logp_comm_cycles(PROFILE, _costs())
    for network in (
        {"latency_cycles": 4 * NET.latency_cycles},
        {"overhead_cycles": 4 * NET.overhead_cycles},
        {"gap_cycles_per_byte": 4 * NET.gap_cycles_per_byte},
    ):
        assert logp_comm_cycles(PROFILE, _costs(**network)) > base, network


def test_bsp_validation():
    BSPParams(p=4, g=2.0, L=0.0)
    with pytest.raises(ValueError):
        BSPParams(p=4, g=2.0, L=-1.0)


def test_params_frozen():
    prm = BSPParams(p=4, g=2.0, L=1.0)
    with pytest.raises(Exception):
        prm.g = 3.0  # type: ignore[misc]
