"""Model-side primitives the prediction engine and extensions build on.

* :mod:`repro.core.chernoff` — binomial tail machinery behind every
  *WHP bound* line (90% confidence, union bound over processors);
* :mod:`repro.core.params` — the BSP parameter set ``(p, g, L)``;
* :mod:`repro.core.emulation` — the cost of emulating a QSM program
  on a BSP machine, and its work-preserving threshold;
* :mod:`repro.core.pram` — unit-cost PRAM models, the §2.1 baseline.

Every QSM, BSP and LogP price of a phase — the Best-case, WHP-bound,
QSM-estimate and BSP-estimate lines of Figures 1–6 — comes from
:mod:`repro.predict`, whose :class:`~repro.predict.profile.PhaseComm`
is the one per-phase cost record.  The emulation and PRAM models read
such phases by attribute (``m_op``, ``m_rw``, ``kappa``); this package
does not import :mod:`repro.predict`, which imports
:mod:`repro.core.chernoff`.
"""

from repro.core.params import BSPParams
from repro.core.chernoff import (
    chernoff_binomial_lower,
    binomial_tail_inverse_exact,
    chernoff_binomial_upper,
    chernoff_delta_upper,
    oversampling_bucket_bound,
)
from repro.core.emulation import (
    EmulationParams,
    emulation_slowdown,
    qsm_phase_on_bsp,
    qsm_program_on_bsp,
    work_preserving_threshold,
)
from repro.core.pram import AccessRule, PRAMAccessError, PRAMModel, PRAMParams, pram_vs_qsm_phase_gap

__all__ = [
    "BSPParams",
    "chernoff_binomial_upper",
    "chernoff_binomial_lower",
    "chernoff_delta_upper",
    "binomial_tail_inverse_exact",
    "oversampling_bucket_bound",
    "EmulationParams",
    "emulation_slowdown",
    "qsm_phase_on_bsp",
    "qsm_program_on_bsp",
    "work_preserving_threshold",
    "AccessRule",
    "PRAMAccessError",
    "PRAMModel",
    "PRAMParams",
    "pram_vs_qsm_phase_gap",
]
