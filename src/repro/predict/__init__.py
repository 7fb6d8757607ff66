"""``repro.predict`` — the pluggable prediction model engine.

The paper's core experiment compares one measured run against a
*family* of analytic predictions: QSM and BSP, each in best-case,
Chernoff-whp and observed-skew variants (§3.2–3.3, Figures 1–6).  This
package is that comparison as one pipeline:

* :mod:`~repro.predict.profile` — :class:`PhaseProfile`, the common
  description both closed forms and measured runs map onto, made of
  :class:`PhaseComm` s, the repository's one per-phase cost record;
* :mod:`~repro.predict.sources` — per-algorithm profile sources (the
  §3.2 skew analyses for prefix sums, sample sort, list ranking);
* :mod:`~repro.predict.models` — the builtin model variants
  (``qsm-best``, ``qsm-whp``, ``qsm-observed``, ``bsp-best``,
  ``bsp-whp``, ``bsp-observed``, ``logp``), their topology-aware twins
  (``qsm-cluster``, ``bsp-cluster``, ``logp-cluster`` — tier-mixed
  word costs under a cluster topology, identical to the flat variants
  otherwise) and ``qsm-faulty`` (the armed fault plan's expected
  retransmission traffic and latency tax);
* :mod:`~repro.predict.engine` — the :class:`Predictor` protocol, the
  model registry, and the evaluation helpers producing uniform
  :class:`PredictionRecord` s (with ``predict.*`` obs counters/spans).

Adding a model is one :func:`register_model` call; adding a workload is
one :func:`register_source` call — every figure, the CLI ``--models``
flag and the report renderer pick both up automatically.  See
``docs/PREDICTION.md``.
"""

from repro.predict.engine import (
    ANALYTIC_SCENARIOS,
    OBSERVED_SCENARIO,
    ModelVariant,
    PredictionRecord,
    Predictor,
    available_models,
    evaluate,
    get_model,
    predict_point,
    predict_value,
    register_model,
    resolve_models,
    unregister_model,
)
from repro.predict.models import (
    BUILTIN_MODELS,
    bsp_cluster_comm_cycles,
    bsp_comm_cycles,
    logp_cluster_comm_cycles,
    logp_comm_cycles,
    qsm_cluster_comm_cycles,
    qsm_comm_cycles,
    qsm_faulty_comm_cycles,
)
from repro.predict.profile import PhaseComm, PhaseProfile
from repro.predict.sources import (
    ListRankSource,
    PrefixSource,
    ProfileSourceBase,
    SampleSortSource,
    available_sources,
    make_source,
    register_source,
)

#: Default model set of Figures 2-6: the paper's prediction lines.
PAPER_MODELS = ("qsm-best", "qsm-whp", "qsm-observed", "bsp-observed")
#: Default model set of Figure 1 (deterministic pattern: best == whp).
PREFIX_MODELS = ("qsm-best", "bsp-best")

__all__ = [
    "ANALYTIC_SCENARIOS",
    "OBSERVED_SCENARIO",
    "BUILTIN_MODELS",
    "PAPER_MODELS",
    "PREFIX_MODELS",
    "ModelVariant",
    "PredictionRecord",
    "Predictor",
    "PhaseComm",
    "PhaseProfile",
    "ProfileSourceBase",
    "PrefixSource",
    "SampleSortSource",
    "ListRankSource",
    "available_models",
    "available_sources",
    "bsp_cluster_comm_cycles",
    "bsp_comm_cycles",
    "evaluate",
    "get_model",
    "logp_cluster_comm_cycles",
    "logp_comm_cycles",
    "make_source",
    "predict_point",
    "predict_value",
    "qsm_cluster_comm_cycles",
    "qsm_comm_cycles",
    "qsm_faulty_comm_cycles",
    "register_model",
    "register_source",
    "resolve_models",
    "unregister_model",
]
