"""Message-passing library on top of the simulated network.

This is the reproduction's stand-in for Armadillo's ``libmvpplus``
(§3.1.2): a thin matched-receive layer (:mod:`repro.msg.mp`) plus the
binary-tree barrier's shape and closed-form cost
(:mod:`repro.msg.collectives`).  The bulk-synchronous shared-memory
library (:mod:`repro.qsmlib`) is implemented entirely on these
primitives, exactly as in the paper.
"""

from repro.msg.mp import Endpoint, make_endpoints
from repro.msg.collectives import tree_barrier_cost_estimate

__all__ = [
    "Endpoint",
    "make_endpoints",
    "tree_barrier_cost_estimate",
]
