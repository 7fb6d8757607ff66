"""The builtin model variants: QSM, BSP (each best/whp/observed), LogP.

Family evaluators price a :class:`~repro.predict.profile.PhaseProfile`
in cycles:

* **QSM** — per phase, the busiest processor's remote words priced with
  the effective per-word gaps.  Scalar (analytic) phases use the
  end-to-end ``put_word_cycles``/``get_word_cycles`` — exactly the
  closed forms of §3.2.  Vector (measured) phases use the side-split
  s-QSM costs (outbound + inbound + served traffic per processor, max
  over processors) — the "QSM estimate" from observed skews of
  Figures 2 and 3, for any measured run.
* **BSP** — the QSM price plus ``L`` (the software barrier) per sync.
* **LogP** — per-message accounting: a phase whose processors each
  send ``M > 0`` messages costs ``o + (M−1)·max(g, o) + l + o``
  (consecutive injections spaced by ``max(g, o)``, the last message
  landing ``l`` later and paying its receive overhead), with the
  per-message gap approximated by the effective word cost (one bulk
  message per peer carries many words; see ``docs/PREDICTION.md``).

Topology-aware twins (``qsm-cluster``, ``bsp-cluster``,
``logp-cluster``) price the same profiles against the cost model's
:meth:`~repro.qsmlib.costmodel.CommCostModel.effective` tier mix: under
a cluster topology a fraction ``f = (c-1)/(p-1)`` of each processor's
remote words stays on-node and pays the cheap intra tier, so every
per-word cost mixes as ``f·intra + (1-f)·inter`` (docs/MODEL.md).  On a
flat machine ``effective`` is the identity, so the cluster variants
degenerate bit-for-bit to their flat twins — the golden tests pin this.
``qsm-faulty`` scales the QSM price by the fault plan's expected
retransmission traffic and adds its expected per-sync latency tax.

The registered variants are the engine's vocabulary: the name
(``qsm-whp``, ``bsp-observed``, ...) picks a family evaluator and the
scenario whose profile it is fed.
"""

from __future__ import annotations

from repro import faults as _faults
from repro.predict.engine import ModelVariant, register_model
from repro.predict.profile import PhaseProfile
from repro.qsmlib.costmodel import CommCostModel


def qsm_comm_cycles(profile: PhaseProfile, costs: CommCostModel) -> float:
    """QSM communication price of a profile (see module docstring).

    The arithmetic deliberately mirrors the retired per-algorithm
    closed forms term by term — the golden-value tests pin the figures'
    prediction lines to be bit-identical.
    """
    total = 0.0
    for ph in profile.phases:
        if ph.is_vector:
            per_proc = (
                ph.put_words * costs.put_word_src_cycles
                + ph.get_words * costs.get_word_requester_cycles
            )
            if ph.put_in_words is not None:
                per_proc = per_proc + ph.put_in_words * costs.put_word_dst_cycles
            if ph.get_served_words is not None:
                per_proc = per_proc + ph.get_served_words * costs.get_word_server_cycles
            total += float(per_proc.max()) if per_proc.size else 0.0
        else:
            total += ph.put_words * costs.put_word_cycles + ph.get_words * costs.get_word_cycles
    return total


def bsp_comm_cycles(profile: PhaseProfile, costs: CommCostModel) -> float:
    """BSP price: QSM plus one barrier ``L`` per synchronization."""
    return qsm_comm_cycles(profile, costs) + profile.n_syncs * costs.barrier_cycles(
        profile.p
    )


def logp_comm_cycles(profile: PhaseProfile, costs: CommCostModel) -> float:
    """LogP price of a profile's per-phase message counts.

    A phase with ``M`` messages costs ``o + (M-1)*max(g, o) + l + o``,
    with the machine's real ``l`` and ``o`` and ``g`` the effective
    per-word cost averaged over the put/get directions.  Each message
    is charged one word's gap whatever it carries, so this prices a
    phase's message count, ``l`` and ``o``, not its volume: the
    per-message floor.  Sample sort sends as many messages at every
    ``n``, so on fig2 ``--fast`` it reads 61,380 cycles at every ``n``
    while the measured communication grows from 1,722,904 to
    38,053,460 cycles.  Phases without messages cost nothing.
    """
    net = costs.network
    l, o = net.latency_cycles, net.overhead_cycles
    spacing = max(0.5 * (costs.put_word_cycles + costs.get_word_cycles), o)
    total = 0.0
    for ph in profile.phases:
        if ph.messages > 0:
            total += o + (ph.messages - 1) * spacing + l + o
    return total


def qsm_cluster_comm_cycles(profile: PhaseProfile, costs: CommCostModel) -> float:
    """QSM priced with the topology's traffic-weighted tier mix.

    Identical arithmetic to :func:`qsm_comm_cycles`, fed the
    ``effective(p)`` cost model — on a flat topology that is the same
    object, so this variant equals ``qsm-best`` there bit-for-bit.
    """
    return qsm_comm_cycles(profile, costs.effective(profile.p))


def bsp_cluster_comm_cycles(profile: PhaseProfile, costs: CommCostModel) -> float:
    """BSP with tier-mixed word costs; the barrier stays an inter-node
    tree (the mixed model delegates ``L`` to the inter tier)."""
    eff = costs.effective(profile.p)
    return qsm_comm_cycles(profile, eff) + profile.n_syncs * eff.barrier_cycles(profile.p)


def logp_cluster_comm_cycles(profile: PhaseProfile, costs: CommCostModel) -> float:
    """LogP with tier-mixed ``o``/``l``/``g`` (the effective model's
    network carries the mixed overhead and latency)."""
    return logp_comm_cycles(profile, costs.effective(profile.p))


def qsm_faulty_comm_cycles(profile: PhaseProfile, costs: CommCostModel) -> float:
    """QSM under the armed fault plan's expected perturbation.

    Drop-with-retransmit injects every crossing ``1/(1-drop)`` times in
    expectation, re-paying the full ``o + g·bytes`` charge each time —
    a pure multiplier on the QSM price
    (:meth:`~repro.qsmlib.costmodel.CommCostModel.fault_traffic_factor`).
    Delay jitter and retransmission waits extend each phase's critical
    path by the expected per-delivery slip, charged once per sync
    (:meth:`~repro.qsmlib.costmodel.CommCostModel.fault_extra_latency_cycles`).
    With no plan armed both terms are the identity and this variant
    equals ``qsm-best`` exactly.
    """
    plan = _faults.active_plan()
    base = qsm_comm_cycles(profile, costs)
    return base * costs.fault_traffic_factor(plan) + (
        profile.n_syncs * costs.fault_extra_latency_cycles(plan)
    )


#: The paper's model family × load-balance scenario grid, plus LogP.
BUILTIN_MODELS = (
    ModelVariant(
        "qsm-best", "qsm", "best", qsm_comm_cycles,
        doc="QSM closed form, perfectly balanced skews (Figures 1-3 'Best case')",
    ),
    ModelVariant(
        "qsm-whp", "qsm", "whp", qsm_comm_cycles,
        doc="QSM closed form under Chernoff whp skew bounds ('WHP bound')",
    ),
    ModelVariant(
        "qsm-observed", "qsm", "observed", qsm_comm_cycles,
        doc="QSM priced on each run's measured per-phase skews ('QSM estimate')",
    ),
    ModelVariant(
        "bsp-best", "bsp", "best", bsp_comm_cycles,
        doc="BSP closed form, best-case skews (QSM + L per superstep)",
    ),
    ModelVariant(
        "bsp-whp", "bsp", "whp", bsp_comm_cycles,
        doc="BSP closed form under whp skew bounds",
    ),
    ModelVariant(
        "bsp-observed", "bsp", "observed", bsp_comm_cycles,
        doc="BSP priced on measured skews ('BSP estimate')",
    ),
    ModelVariant(
        "logp", "logp", "best", logp_comm_cycles,
        doc="LogP per-message accounting of the best-case message pattern",
    ),
    ModelVariant(
        "qsm-cluster", "qsm", "best", qsm_cluster_comm_cycles,
        doc="QSM closed form with topology-mixed tier costs (== qsm-best on flat)",
    ),
    ModelVariant(
        "bsp-cluster", "bsp", "best", bsp_cluster_comm_cycles,
        doc="BSP with tier-mixed word costs and an inter-node barrier L",
    ),
    ModelVariant(
        "logp-cluster", "logp", "best", logp_cluster_comm_cycles,
        doc="LogP with tier-mixed o/l/g (== logp on flat)",
    ),
    ModelVariant(
        "qsm-faulty", "qsm", "best", qsm_faulty_comm_cycles,
        doc="QSM scaled by the armed fault plan's expected retransmission "
            "traffic plus its per-sync latency tax (== qsm-best unperturbed)",
    ),
)

for _variant in BUILTIN_MODELS:
    register_model(_variant)
