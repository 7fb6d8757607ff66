"""QSM-on-BSP emulation costs (the [19] companion results).

The paper's introduction leans on a theoretical result: "algorithms
designed on the QSM should perform just as well on the BSP (to within a
small constant factor) provided the input size is sufficiently large"
(Gibbons–Matias–Ramachandran; Ramachandran–Grayson–Dahlin TR98-22).
This module implements the cost side of that emulation so the claim can
be checked numerically against this reproduction's measured phase logs:

* a QSM phase with per-processor work ``m_op``, remote traffic ``m_rw``
  and contention ``kappa`` is emulated on a ``p'``-processor BSP whose
  shared memory is *hashed* across the processors;
* each of the ``p`` QSM processors' work lands on some BSP processor
  (``p/p'`` QSM processors per BSP processor);
* hashing turns the remote accesses into an h-relation of expected size
  ``(p/p')·m_rw + kappa`` up to a whp ballast factor for hash imbalance;
* every phase pays one BSP superstep's ``L``.

The emulation is *work-preserving* (constant-factor efficient) exactly
when the phase is large enough that ``L`` and the hash ballast are
lower-order — which is the "input size sufficiently large" proviso that
Section 3 then tests experimentally.

A phase is anything with ``m_op``, ``m_rw`` and ``kappa`` attributes:
a :class:`~repro.predict.profile.PhaseComm`, e.g. one phase of
``PhaseProfile.from_run(run)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.params import BSPParams
from repro.util.validation import check_positive


@dataclass(frozen=True)
class EmulationParams:
    """Knobs of the QSM→BSP emulation.

    ``ballast`` is the whp multiplicative slack on the h-relation from
    hash-bucket imbalance (the analysis gives a constant ~2 for
    superlogarithmic phase sizes); ``p`` is the emulated QSM's
    processor count, ``p_prime`` the emulating BSP's.
    """

    p: int
    p_prime: int
    ballast: float = 2.0

    def __post_init__(self) -> None:
        check_positive("p", self.p)
        check_positive("p_prime", self.p_prime)
        if self.p_prime > self.p:
            raise ValueError(
                f"emulation needs p' <= p (got p'={self.p_prime} > p={self.p})"
            )
        if self.ballast < 1.0:
            raise ValueError(f"ballast must be >= 1, got {self.ballast}")

    @property
    def slack(self) -> float:
        """QSM processors emulated per BSP processor (the parallel slack)."""
        return self.p / self.p_prime


def qsm_phase_on_bsp(work, bsp: BSPParams, emu: EmulationParams) -> float:
    """BSP superstep time to emulate one QSM phase.

    ``w + g·h + L`` with ``w = slack·m_op`` and
    ``h = ballast·(slack·m_rw + kappa)``.
    """
    w = emu.slack * work.m_op
    h = emu.ballast * (emu.slack * work.m_rw + work.kappa)
    return w + bsp.g * h + bsp.L


def qsm_program_on_bsp(phases: Iterable, bsp: BSPParams, emu: EmulationParams) -> float:
    """Total BSP time to emulate a QSM program phase by phase."""
    return sum(qsm_phase_on_bsp(w, bsp, emu) for w in phases)


def emulation_slowdown(phases: Sequence, bsp: BSPParams, emu: EmulationParams) -> float:
    """Emulated time over the ideal rescaled cost (1.0 = work-preserving).

    The ideal is the QSM program's own cost under the same ``g``, spread
    over the p' BSP processors (``slack``-scaled), with no L and no
    ballast.  The theorem says this ratio is O(1) once phases are large;
    it blows up when ``L`` dominates tiny phases.
    """
    if not phases:
        raise ValueError("need at least one phase")
    ideal = sum(
        emu.slack * max(w.m_op, bsp.g * w.m_rw, w.kappa) for w in phases
    )
    if ideal <= 0:
        return math.inf
    return qsm_program_on_bsp(phases, bsp, emu) / ideal


def work_preserving_threshold(bsp: BSPParams, emu: EmulationParams, factor: float = 3.0) -> float:
    """Minimum per-phase QSM cost for the emulation to stay within
    *factor* of ideal.

    From ``slack·C·factor >= slack·C·ballast + L``: once each phase's
    QSM cost ``C`` reaches ``L / (slack·(factor − ballast))`` the
    per-phase overheads are absorbed.  Infinite if ``factor`` does not
    even cover the ballast.
    """
    if factor <= emu.ballast:
        return math.inf
    return bsp.L / (emu.slack * (factor - emu.ballast))
