"""Superscalar operation-profile cost model (the Armadillo substitute).

The paper measures algorithm running time on Armadillo, a cycle-level
out-of-order processor simulator configured per Table 2.  We replace
instruction-level simulation with an *operation-profile* model: an
algorithm phase describes itself as counts of integer ops, FP ops,
loads/stores (with access-pattern descriptors) and branches, and the
model converts that to cycles using Table 2's resources:

* issue is limited to 4 instructions/cycle,
* each functional-unit class has its own throughput bound
  (4 int / 4 FP / 2 load-store per cycle),
* loads and stores stall per the two-level cache model,
* a small fraction of branches mispredict and pay a flush penalty.

Out-of-order execution is modelled by taking the *max* of the
throughput bounds (the window is large enough to overlap independent
work) and adding only the non-overlappable memory and branch stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Tuple

from repro.machine.cache import AnalyticCache, MemoryAccess
from repro.machine.config import NodeConfig


@dataclass(frozen=True, slots=True)
class OpProfile:
    """An abstract description of a chunk of local computation.

    ``mem`` lists access-pattern descriptors covering the loads/stores;
    ``loads``/``stores`` that exceed the references described in ``mem``
    are charged as L1 hits (register-blocked traffic).
    """

    int_ops: float = 0.0
    fp_ops: float = 0.0
    loads: float = 0.0
    stores: float = 0.0
    branches: float = 0.0
    mem: Tuple[MemoryAccess, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in ("int_ops", "fp_ops", "loads", "stores", "branches"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def total_instructions(self) -> float:
        return self.int_ops + self.fp_ops + self.loads + self.stores + self.branches

    def __add__(self, other: "OpProfile") -> "OpProfile":
        if not isinstance(other, OpProfile):
            return NotImplemented
        return OpProfile(
            int_ops=self.int_ops + other.int_ops,
            fp_ops=self.fp_ops + other.fp_ops,
            loads=self.loads + other.loads,
            stores=self.stores + other.stores,
            branches=self.branches + other.branches,
            mem=self.mem + other.mem,
        )

    def scaled(self, k: float) -> "OpProfile":
        """The profile repeated *k* times (patterns keep their shape)."""
        if k < 0:
            raise ValueError("scale factor must be >= 0")
        return OpProfile(
            int_ops=self.int_ops * k,
            fp_ops=self.fp_ops * k,
            loads=self.loads * k,
            stores=self.stores * k,
            branches=self.branches * k,
            mem=tuple(replace(m, count=int(m.count * k)) for m in self.mem),
        )


class CPUModel:
    """Convert :class:`OpProfile` chunks to cycle counts for one node.

    It holds nothing but memos of pure functions of its frozen node
    config (``cost``, and its cache model's copy rates), so the p
    identical nodes of a machine, and every machine built on that node
    config, share one instance (:meth:`for_node`).
    """

    #: cost() memos, one dict per distinct (frozen) node config —
    #: shared across CPUModel instances so the p per-node models of a
    #: machine, and fresh machines built for every sweep point, all hit
    #: the same cache.
    _shared_memos: dict = {}
    #: :meth:`for_node`'s instances, one per distinct node config.
    _shared: dict = {}

    def __init__(self, node: NodeConfig) -> None:
        self.node = node
        self.cache = AnalyticCache(node)
        # cost() is a pure function of the (frozen) profile and the
        # immutable node config; memoised because SPMD programs charge
        # the same profile once per processor every phase.
        self._memo = CPUModel._shared_memos.setdefault(node, {})

    @classmethod
    def for_node(cls, node: NodeConfig) -> "CPUModel":
        """The model of every node with config *node* (keyed like the
        cost memos, by equality)."""
        found = cls._shared.get(node)
        if found is None:
            found = cls._shared.setdefault(node, cls(node))
        return found

    def cost(self, profile: OpProfile) -> Tuple[float, float]:
        """``(cycles, instructions)`` of *profile* on this node.

        Each distinct profile is priced and checked once: a profile
        whose instruction or cycle count is not finite raises
        :class:`ValueError` (NaN/inf would silently poison every
        downstream phase timing), and is not memoised.
        """
        found = self._memo.get(profile)
        if found is None:
            total = profile.total_instructions
            if not math.isfinite(total):
                raise ValueError(
                    f"OpProfile totals must be finite, got {total!r} instructions"
                )
            cycles = self._cycles(profile)
            if not math.isfinite(cycles):
                raise ValueError(f"OpProfile costs a non-finite cycle count ({cycles!r})")
            found = self._memo[profile] = (cycles, total)
        return found

    def cycles(self, profile: OpProfile) -> float:
        """Expected execution cycles for *profile* on this node."""
        return self.cost(profile)[0]

    def _cycles(self, profile: OpProfile) -> float:
        node = self.node
        issue_bound = profile.total_instructions / node.issue_width
        int_bound = profile.int_ops * node.fu_latency / node.int_units
        fp_bound = profile.fp_ops * node.fu_latency / node.fp_units
        ls_bound = (profile.loads + profile.stores) / node.ls_units
        throughput = max(issue_bound, int_bound, fp_bound, ls_bound)

        mem_stall = sum(self.cache.stall_cycles(m) for m in profile.mem)
        branch_stall = (
            profile.branches * node.branch_mispredict_rate * node.branch_mispredict_penalty
        )
        return throughput + mem_stall + branch_stall

    def copy_cycles(self, nbytes: float, resident: bool = False) -> float:
        """Cycles to memcpy *nbytes* (used by the qsmlib software model)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return nbytes * self.cache.copy_cycles_per_byte(resident=resident)
