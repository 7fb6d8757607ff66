"""The BSP parameter set (§2.1).

The point of the paper is the *number* of parameters: QSM exposes only
``(p, g)``; BSP adds the superstep/synchronization cost ``L``; LogP
adds per-message overhead ``o`` and replaces ``L`` with a latency
``l``.  The prediction models of :mod:`repro.predict.models` price all
three from one :class:`~repro.qsmlib.costmodel.CommCostModel`; the
explicit BSP triple remains here because the QSM-on-BSP emulation
(:mod:`repro.core.emulation`) takes it as input.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive


@dataclass(frozen=True)
class BSPParams:
    """Bulk Synchronous Parallel: gap plus per-superstep cost ``L``.

    A superstep with local work ``w`` and h-relation ``h`` costs
    ``w + g·h + L``.
    """

    p: int
    g: float
    L: float

    def __post_init__(self) -> None:
        check_positive("p", self.p)
        check_positive("g", self.g)
        if self.L < 0:
            raise ValueError(f"L must be >= 0, got {self.L}")
