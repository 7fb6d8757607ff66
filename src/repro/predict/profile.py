"""Phase profiles: the common input language of every prediction model.

A :class:`PhaseProfile` describes one algorithm execution as a sequence
of per-phase communication quantities (:class:`PhaseComm`), plus the
synchronization count that barrier-charging models (BSP) need.
:class:`PhaseComm` is the repository's one per-phase cost record: the
registry's QSM/BSP/LogP evaluators price it, and the QSM-on-BSP
emulation and PRAM models of :mod:`repro.core` read its ``m_op``,
``m_rw`` and ``kappa`` (Table 1's designer quantities).  Profiles come
from two kinds of source:

* **analytic** — an algorithm's closed-form analysis for a scenario
  (``best`` / ``whp``), where each phase carries *scalar* word counts:
  the busiest processor's traffic, the quantity the QSM/BSP closed
  forms of §3.2 price with the effective per-word gap;
* **observed** — a measured :class:`~repro.qsmlib.stats.RunResult`,
  where each phase carries *per-processor* numpy arrays straight from
  the :class:`~repro.qsmlib.stats.PhaseRecord` logs (including the
  inbound/served splits the s-QSM view charges at the memory side).

Model evaluators (:mod:`repro.predict.models`) price either kind; the
scalar path reproduces the paper's closed forms bit-for-bit and the
vector path is the observed-skew "QSM estimate" of Figures 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class PhaseComm:
    """Communication quantities of one phase.

    ``put_words``/``get_words`` are either floats (the busiest
    processor's outbound traffic — the analytic view) or per-processor
    ``np.ndarray`` s (the measured view).  ``put_in_words``/
    ``get_served_words`` exist only in the measured view: traffic a
    processor receives or serves as a memory owner, which the s-QSM
    charges too.  ``messages`` is the per-processor message count LogP
    prices (analytic view only; 0 for a traffic-free phase).  ``m_op``
    (the most local operations at any processor) and ``kappa`` (the
    most accesses to any one shared word) are measured-view quantities
    the communication models leave unpriced.
    """

    put_words: Any = 0.0
    get_words: Any = 0.0
    put_in_words: Optional[np.ndarray] = None
    get_served_words: Optional[np.ndarray] = None
    m_op: float = 0.0
    kappa: float = 0.0
    messages: float = 0.0

    @property
    def is_vector(self) -> bool:
        """Whether this phase carries per-processor measured arrays."""
        return isinstance(self.put_words, np.ndarray) or isinstance(
            self.get_words, np.ndarray
        )

    @property
    def m_rw(self) -> float:
        """Table 1's ``m_rw``: the most remote words (puts + gets) any
        one processor moves this phase."""
        if self.is_vector:
            words = np.asarray(self.put_words) + np.asarray(self.get_words)
            return float(words.max()) if words.size else 0.0
        return float(self.put_words) + float(self.get_words)

    @classmethod
    def from_phase_record(cls, record) -> "PhaseComm":
        """Measured view of one :class:`~repro.qsmlib.stats.PhaseRecord`:
        the raw per-processor word arrays (for the side-split s-QSM
        pricing), the busiest processor's ``m_op`` and the phase's
        ``kappa`` (0 when contention tracking is off)."""
        return cls(
            put_words=record.put_words,
            get_words=record.get_words,
            put_in_words=record.put_in_words,
            get_served_words=record.get_served_words,
            m_op=float(record.op_counts.max()) if record.op_counts.size else 0.0,
            kappa=float(record.kappa or 0),
        )


@dataclass(frozen=True)
class PhaseProfile:
    """One algorithm execution as seen by the prediction models."""

    algo: str
    scenario: str  # "best" | "whp" | "observed"
    p: int
    #: Synchronizations the execution performs (BSP charges L per sync).
    n_syncs: int
    phases: Tuple[PhaseComm, ...]
    n: Optional[float] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_run(cls, run, algo: str = "measured") -> "PhaseProfile":
        """Observed-skew profile of a measured run (any program)."""
        return cls(
            algo=algo,
            scenario="observed",
            p=run.p,
            n_syncs=run.n_phases,
            phases=tuple(PhaseComm.from_phase_record(ph) for ph in run.phases),
        )
