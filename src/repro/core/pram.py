"""PRAM cost models (the §2.1 comparison baseline).

The PRAM charges unit time per parallel step and unit time per shared
memory access — no bandwidth, latency, or synchronization cost.  The
paper's §2.1 argues this mismatches real machines in two ways we can
exhibit with the simulator:

1. **no bandwidth term** — PRAM costs ignore ``g·m_rw`` entirely;
2. **step-synchronous style** — PRAM algorithms take many more phases
   than QSM formulations of the same problem (e.g. log p rounds of
   pointer-style prefix vs. QSM's single phase), and on a real machine
   every phase pays the sync floor.

Variants differ in their *memory access rules*, enforced against the
measured ``kappa``:

* ``EREW`` — exclusive read, exclusive write: kappa must be ≤ 1;
* ``CREW`` — concurrent read, exclusive write: concurrent reads free;
* ``CRCW`` — concurrent everything, unit time regardless of kappa.

A phase is anything with ``m_op``, ``m_rw`` and ``kappa`` attributes,
such as a :class:`~repro.predict.profile.PhaseComm`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from repro.util.validation import check_positive


class AccessRule(enum.Enum):
    """PRAM memory access discipline."""

    EREW = "erew"
    CREW = "crew"
    CRCW = "crcw"


class PRAMAccessError(ValueError):
    """A phase violates the PRAM variant's memory access rule."""


@dataclass(frozen=True)
class PRAMParams:
    """The PRAM's single architectural parameter."""

    p: int
    rule: AccessRule = AccessRule.EREW

    def __post_init__(self) -> None:
        check_positive("p", self.p)


class PRAMModel:
    """Unit-cost PRAM evaluation over per-phase records.

    A phase costs ``m_op + m_rw`` (every operation and every shared
    access is one unit; no gap, no latency, no barrier).  The access
    rule is checked against kappa when it is known.
    """

    def __init__(self, params: PRAMParams) -> None:
        self.params = params

    def check_access(self, work) -> None:
        if self.params.rule is AccessRule.CRCW:
            return
        if self.params.rule is AccessRule.EREW and work.kappa > 1:
            raise PRAMAccessError(
                f"EREW PRAM forbids concurrent access (kappa={work.kappa:g})"
            )
        # CREW: we cannot distinguish read from write contention in a
        # phase record; treat kappa as read contention (allowed).

    def phase_cost(self, work) -> float:
        self.check_access(work)
        return work.m_op + work.m_rw

    def program_cost(self, phases: Iterable) -> float:
        return sum(self.phase_cost(w) for w in phases)


def pram_vs_qsm_phase_gap(n_phases_pram: int, n_phases_qsm: int, sync_floor_cycles: float) -> float:
    """Extra real-machine cycles a PRAM-style phase structure pays.

    The PRAM model itself charges nothing for synchronization; on an
    actual machine each extra phase costs at least the empty-sync floor
    (plan + barrier + bookkeeping).  This helper quantifies §2.1's
    "larger latency and synchronization costs than in the QSM".
    """
    if n_phases_pram < n_phases_qsm:
        raise ValueError("PRAM formulation assumed to use at least as many phases")
    return (n_phases_pram - n_phases_qsm) * sync_floor_cycles
