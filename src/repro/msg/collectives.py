"""The binary-tree barrier's shape and closed-form cost.

The shared-memory library's ``sync()`` ends every phase with a barrier;
the paper measures the full software barrier at L ≈ 25500 cycles for 16
processors (Table 3).  The library implements the textbook binary-tree
barrier (reduce up, broadcast down) in
:meth:`~repro.qsmlib.runtime.SyncEngine._barrier`, mirrored by the epoch
kernel; both take the tree from :func:`_children`/:func:`_parent`.  Its
cost emerges from the NIC model (2 · depth · (2o + l + header·g) plus
software per-hop cycles); :func:`tree_barrier_cost_estimate` is that
closed form, the BSP models' ``L``.
"""

from __future__ import annotations

import math
from typing import List

from repro.machine.config import NetworkConfig

#: Size of a barrier/control hop on the wire, in bytes.
CONTROL_BYTES = 8


def _children(pid: int, p: int) -> List[int]:
    """Children of *pid* in the implicit binary tree over 0..p-1."""
    return [c for c in (2 * pid + 1, 2 * pid + 2) if c < p]


def _parent(pid: int) -> int:
    return (pid - 1) // 2


def tree_depth(p: int) -> int:
    """Depth of the binary tree over p nodes (hops from deepest leaf to root)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return int(math.floor(math.log2(p))) if p > 1 else 0


def tree_barrier_cost_estimate(net: NetworkConfig, p: int, sw_hop_cycles: float = 0.0) -> float:
    """Closed-form estimate of the barrier time (used for BSP's L parameter).

    Two tree sweeps; each hop costs send-NIC + wire + recv-NIC plus any
    software per-hop cycles.  The DES-measured value (Table 3 experiment)
    should land near this.
    """
    hop = (
        net.message_send_cycles(CONTROL_BYTES)
        + net.latency_cycles
        + net.message_recv_cycles(CONTROL_BYTES)
        + sw_hop_cycles
    )
    return 2.0 * tree_depth(p) * hop
