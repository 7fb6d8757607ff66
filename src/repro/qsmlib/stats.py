"""Per-phase and per-run measurement records.

The paper's figures compare *measured communication time* against model
predictions computed from per-phase operation counts and observed
load-balance skews.  Everything those comparisons need is captured
here:

* :class:`PhaseRecord` — one synchronized phase: per-processor compute
  cycles and op counts (``m_op``), remote put/get word counts
  (``m_rw``), maximum per-word contention (``kappa``), and the DES
  timestamps that define measured communication time;
* :class:`RunResult` — the whole run: phases, totals, algorithm
  observations (B, r, x_i, ...), and the per-processor return values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np


@dataclass
class PhaseRecord:
    """Measurements for one bulk-synchronous phase."""

    index: int
    #: Per-processor local computation charged this phase (cycles).
    compute_cycles: np.ndarray
    #: Per-processor abstract operation counts (QSM's m_op).
    op_counts: np.ndarray
    #: Per-processor remote words written (puts crossing nodes).
    put_words: np.ndarray
    #: Per-processor remote words read (gets crossing nodes).
    get_words: np.ndarray
    #: Per-processor words served locally (owner == requester).
    local_words: np.ndarray
    #: Max accesses to any single word this phase (QSM's kappa);
    #: ``None`` when contention tracking is disabled.
    kappa: Optional[int]
    #: Per-processor remote put words *received* (inbound, column sums).
    put_in_words: Optional[np.ndarray] = None
    #: Per-processor get words *served* to other nodes (inbound requests).
    get_served_words: Optional[np.ndarray] = None
    #: Simulation time when the phase began.
    start: float = 0.0
    #: Time when the slowest processor finished local compute.
    ready: float = 0.0
    #: Time when all processors passed the closing barrier.
    end: float = 0.0

    @property
    def comm_cycles(self) -> float:
        """Measured communication time: sync duration after the last
        processor became ready (compute skew excluded)."""
        return self.end - self.ready

    @property
    def total_cycles(self) -> float:
        return self.end - self.start

    @property
    def m_rw(self) -> np.ndarray:
        """Per-processor remote word count (QSM's m_rw)."""
        return self.put_words + self.get_words

    @property
    def max_put_words(self) -> int:
        return int(self.put_words.max()) if self.put_words.size else 0

    @property
    def max_get_words(self) -> int:
        return int(self.get_words.max()) if self.get_words.size else 0

    @property
    def max_m_rw(self) -> int:
        return int(self.m_rw.max()) if self.put_words.size else 0


@dataclass
class RunResult:
    """Everything measured during one simulated program run."""

    p: int
    seed: int
    phases: List[PhaseRecord] = field(default_factory=list)
    #: Per-processor return values of the program generators.
    returns: List[Any] = field(default_factory=list)
    #: Algorithm-reported observations: key -> list of (phase, pid, value).
    observations: Dict[str, List[tuple]] = field(default_factory=dict)
    #: Local compute after the last sync (max over processors).
    trailing_compute_cycles: float = 0.0
    #: Kernel events processed by the simulator over the whole run
    #: (diagnostic; lets benchmarks report events/sec and the
    #: equivalence tests assert the epoch kernel really does less work).
    sim_events: int = 0

    # ------------------------------------------------------------------
    @property
    def n_phases(self) -> int:
        return len(self.phases)

    @property
    def comm_cycles(self) -> float:
        """Total measured communication time (the paper's y-axis)."""
        return float(sum(ph.comm_cycles for ph in self.phases))

    @property
    def compute_cycles(self) -> float:
        """Critical-path local computation: per-phase max plus trailing."""
        total = sum(float(ph.compute_cycles.max()) for ph in self.phases)
        return total + self.trailing_compute_cycles

    @property
    def total_cycles(self) -> float:
        """End-to-end running time of the simulated program."""
        last_end = self.phases[-1].end if self.phases else 0.0
        return float(last_end) + self.trailing_compute_cycles

    # -- aggregates used by the generic cost-model estimators ------------
    def sum_max_put_words(self) -> int:
        return sum(ph.max_put_words for ph in self.phases)

    def sum_max_get_words(self) -> int:
        return sum(ph.max_get_words for ph in self.phases)

    def observe_values(self, key: str) -> List[Any]:
        """All observed values for *key*, in (phase, pid) order."""
        return [v for (_ph, _pid, v) in self.observations.get(key, [])]

    def observe_max_by_phase(self, key: str) -> Dict[int, float]:
        """Max observed value per phase for *key* (e.g. x_i skews)."""
        out: Dict[int, float] = {}
        for ph, _pid, v in self.observations.get(key, []):
            out[ph] = max(out.get(ph, float("-inf")), v)
        return out

    def summary(self) -> str:
        return (
            f"RunResult(p={self.p}, phases={self.n_phases}, "
            f"total={self.total_cycles:.0f}cy, comm={self.comm_cycles:.0f}cy, "
            f"compute={self.compute_cycles:.0f}cy)"
        )
