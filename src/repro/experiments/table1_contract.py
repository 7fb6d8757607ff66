"""Table 1: the QSM programmer/compiler contract (static rendering).

``ROWS`` is a static list transcribing the paper's Table 1; no model
code is read to produce it.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, render_table

ROWS = [
    ["p (number of processors)", "explicit", "QSM parameter"],
    ["g (gap)", "explicit", "QSM parameter"],
    ["kappa (memory object contention)", "explicit", "minimize max(m_op, g*m_rw, kappa)"],
    ["m_op (# of local operations)", "explicit", "minimize max(m_op, g*m_rw, kappa)"],
    ["m_rw (# of remote operations)", "explicit", "minimize max(m_op, g*m_rw, kappa)"],
    ["l (latency), L (barrier time)", "secondary", "hide latency by pipelining; bulk-synchronous style"],
    ["o (overhead of sending messages)", "secondary", "minimize overhead by batching messages"],
    ["h_r (memory bank contention)", "secondary", "minimize contention by randomizing data layout"],
    ["c (network congestion)", "secondary", "bulk-synchronous style; limit network send rate"],
]


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    return render_table(
        "table1",
        "QSM partition of architectural/algorithmic parameters",
        ["parameter", "class", "implementation contract"],
        ROWS,
    )
