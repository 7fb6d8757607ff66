"""Hand-computed cases of the per-phase cost vocabulary.

:class:`~repro.predict.profile.PhaseComm` is the one per-phase cost
record, and the registry's QSM, BSP and LogP evaluators
(:mod:`repro.predict.models`) price profiles built from it.  ``COSTS``
stands in for a :class:`~repro.qsmlib.costmodel.CommCostModel` with
round per-word gaps, so every expected value below is computed by hand;
the pinned LogP values at the end are priced on real machines.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.machine.config import ClusterTopology, MachineConfig
from repro.predict import (
    PhaseComm,
    PhaseProfile,
    bsp_comm_cycles,
    logp_comm_cycles,
    make_source,
    predict_value,
    qsm_comm_cycles,
)
from repro.qsmlib import QSMMachine, RunConfig

COSTS = SimpleNamespace(
    # Analytic (scalar) phases: end-to-end per-word gaps.
    put_word_cycles=2.0,
    get_word_cycles=6.0,
    # Measured (vector) phases: the side-split s-QSM gaps.
    put_word_src_cycles=1.0,
    put_word_dst_cycles=3.0,
    get_word_requester_cycles=2.0,
    get_word_server_cycles=4.0,
    barrier_cycles=lambda p: 50.0,
    network=SimpleNamespace(latency_cycles=1000.0, overhead_cycles=10.0),
)


def profile(*phases, p=4):
    return PhaseProfile(algo="t", scenario="best", p=p, n_syncs=len(phases), phases=phases)


def test_sqsm_charges_gap_at_memory():
    """Measured phases are priced as s-QSM: a processor's load includes
    the puts landing on it, so a hot spot costs more than its senders."""
    out = PhaseComm(put_words=np.array([10, 10, 10, 0]), get_words=np.zeros(4))
    assert qsm_comm_cycles(profile(out), COSTS) == 10 * 1.0
    hot = dataclasses.replace(
        out, put_in_words=np.array([0, 0, 0, 30]), get_served_words=np.zeros(4)
    )
    assert qsm_comm_cycles(profile(hot), COSTS) == 30 * 3.0


def test_bsp_superstep_is_sum():
    assert bsp_comm_cycles(profile(PhaseComm(put_words=10.0)), COSTS) == 10 * 2.0 + 50.0


def test_bsp_empty_superstep_still_pays_L():
    assert bsp_comm_cycles(profile(PhaseComm()), COSTS) == 50.0


def test_logp_message_costs():
    # 5 messages: o + 4*max(g, o) + l + o, with g = (2 + 6) / 2 = 4 < o.
    assert logp_comm_cycles(profile(PhaseComm(messages=5)), COSTS) == 10 + 40 + 1000 + 10


def test_logp_no_messages_is_pure_compute():
    """A phase that sends nothing is all compute, which no
    communication price charges."""
    assert logp_comm_cycles(profile(PhaseComm(m_op=123.0)), COSTS) == 0.0


def test_program_cost_sums_phases():
    phases = (PhaseComm(put_words=10.0), PhaseComm(get_words=20.0), PhaseComm(m_op=5.0))
    assert qsm_comm_cycles(profile(*phases), COSTS) == 10 * 2.0 + 20 * 6.0
    assert bsp_comm_cycles(profile(*phases), COSTS) == 10 * 2.0 + 20 * 6.0 + 3 * 50.0


def test_model_ordering_on_a_communication_phase():
    """For a comm-heavy phase: QSM <= BSP (BSP adds L)."""
    heavy = profile(PhaseComm(put_words=50.0, get_words=40.0, messages=3))
    qsm = qsm_comm_cycles(heavy, COSTS)
    assert qsm < bsp_comm_cycles(heavy, COSTS) == qsm + 50.0


def test_phase_work_from_phase_record():
    from repro.qsmlib.stats import PhaseRecord

    record = PhaseRecord(
        index=0,
        compute_cycles=np.array([5.0, 7.0]),
        op_counts=np.array([50.0, 70.0]),
        put_words=np.array([3, 9]),
        get_words=np.array([1, 0]),
        local_words=np.array([0, 0]),
        kappa=4,
    )
    phase = PhaseComm.from_phase_record(record)
    assert phase.m_op == 70.0
    assert phase.m_rw == 9.0  # max per-processor (put+get): max(3+1, 9+0)
    assert phase.kappa == 4.0
    assert phase.put_words is record.put_words and phase.get_words is record.get_words


def test_phase_comm_m_rw_scalar():
    assert PhaseComm(put_words=3.0, get_words=4.5).m_rw == 7.5
    assert PhaseComm(put_words=2.0).m_rw == 2.0


def test_phase_comm_m_rw_vector():
    phase = PhaseComm(put_words=np.array([3, 9, 0]), get_words=np.array([7, 0, 2]))
    assert phase.m_rw == 10.0
    assert PhaseComm(put_words=np.array([4, 1])).m_rw == 4.0  # gets default to 0


def test_phase_comm_m_rw_empty():
    assert PhaseComm().m_rw == 0.0
    empty = np.array([], dtype=np.int64)
    assert PhaseComm(put_words=empty, get_words=empty).m_rw == 0.0


# ----------------------------------------------------------------------
# logp / logp-cluster pinned on real machines.  The values were captured
# from the LogP model classes that logp_comm_cycles now inlines; exact
# == is deliberate.  The best-case message pattern does not depend on n.
# ----------------------------------------------------------------------
MACHINES = {
    "flat3": MachineConfig(p=3),
    "flat16": MachineConfig(p=16),
    "cluster6x3": MachineConfig(p=6, topology=ClusterTopology(cores_per_node=3)),
    "cluster16x4": MachineConfig(p=16, topology=ClusterTopology(cores_per_node=4)),
}
LOGP_GOLDEN = {
    ("flat3", "prefix"): (3690.0, 3690.0),
    ("flat3", "samplesort"): (11070.0, 11070.0),
    ("flat3", "listrank"): (98340.0, 98340.0),
    ("flat16", "prefix"): (20460.0, 20460.0),
    ("flat16", "samplesort"): (61380.0, 61380.0),
    ("flat16", "listrank"): (1025400.0, 1025400.0),
    ("cluster6x3", "prefix"): (7560.0, 6505.6),
    ("cluster6x3", "samplesort"): (22680.0, 19516.800000000003),
    ("cluster6x3", "listrank"): (289680.0, 248692.80000000013),
    ("cluster16x4", "prefix"): (20460.0, 19764.8),
    ("cluster16x4", "samplesort"): (61380.0, 59294.399999999994),
    ("cluster16x4", "listrank"): (1025400.0, 990180.0000000009),
}


@pytest.mark.parametrize("n", [4096, 65536])
@pytest.mark.parametrize("machine,algo", sorted(LOGP_GOLDEN))
def test_logp_pinned(machine, algo, n):
    qm = QSMMachine(RunConfig(machine=MACHINES[machine], check_semantics=False))
    costs = qm.cost_model()
    source = make_source(algo, p=qm.p, cpu=qm.machine.cpus[0])
    logp, logp_cluster = LOGP_GOLDEN[machine, algo]
    assert predict_value(source, "logp", costs, n=n) == logp
    assert predict_value(source, "logp-cluster", costs, n=n) == logp_cluster
