"""Closed-form queueing predictions for the §4 microbenchmark.

The memory-bank study is a *closed* queueing system: each of the p
benchmark processes cycles through (software overhead → interconnect →
bank → interconnect) back-to-back.  Classic machine-repairman bounds
give the mean access time per pattern without simulation:

* **NoConflict** — nobody shares a bank: the uncontended path time;
* **Conflict** — all p clients share bank 0: asymptotic closed-network
  bounds give ``T ≈ max(path, p·s)`` (either the path or the saturated
  bank dictates the cycle);
* **Random** — each access picks one of b banks uniformly: an M/D/1-
  style fixed point ``T = path + ρ·s / (2(1−ρ))`` with per-bank
  utilisation ``ρ = (p/b)·s/T``.

The test suite checks these formulas against the simulated
microbenchmark (:func:`~repro.membank.microbench.run_microbenchmark`),
which stays the source of truth for Figure 7: it also captures the
bus/link contention the closed forms fold into tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.membank.machines import MemoryMachineConfig
from repro.membank.interconnect import (
    BusInterconnect,
    EthernetInterconnect,
    TorusInterconnect,
)
from repro.membank.patterns import AccessPattern


@dataclass(frozen=True)
class AnalyticAccessModel:
    """Closed-form per-pattern access-time predictions for one machine."""

    config: MemoryMachineConfig
    #: Uncontended interconnect round-trip cycles (request + response).
    interconnect_cycles: float

    #: Exclusive per-access occupancy of a target-local interconnect
    #: stage (the NOW's ingress link); part of the Conflict bound.
    target_occupancy_cycles: float = 0.0

    #: (cycles, capacity) of the globally shared interconnect stage
    #: (the SMP's snooping bus); bounds every pattern.
    global_occupancy_cycles: float = 0.0
    global_capacity: int = 1

    @classmethod
    def for_machine(cls, config: MemoryMachineConfig) -> "AnalyticAccessModel":
        """Derive the uncontended round trip from the interconnect model:
        the stage cycles of one solo access's request and reply, added
        up in order (as a lone access's clock advances)."""
        interconnect = config.make_interconnect()
        bank = 1 % config.n_banks
        cycles = 0
        for _resource, stage_cycles in interconnect.trip(0, bank) + interconnect.trip(bank, 0):
            cycles += stage_cycles
        shared_cycles, shared_capacity = interconnect.per_access_global_occupancy()
        return cls(
            config=config,
            interconnect_cycles=cycles,
            target_occupancy_cycles=interconnect.per_access_target_occupancy(),
            global_occupancy_cycles=shared_cycles,
            global_capacity=shared_capacity,
        )

    # ------------------------------------------------------------------
    @property
    def path_cycles(self) -> float:
        """Uncontended end-to-end access time."""
        return (
            self.config.software_cycles
            + self.interconnect_cycles
            + self.config.bank_service_cycles
        )

    @property
    def shared_stage_bound(self) -> float:
        """Cycle-time floor from the globally shared stage (bus)."""
        if self.global_occupancy_cycles <= 0:
            return 0.0
        return self.config.p * self.global_occupancy_cycles / self.global_capacity

    def noconflict_cycles(self) -> float:
        """Distinct banks: the path or the saturated shared stage
        (valid while p <= banks)."""
        return max(self.path_cycles, self.shared_stage_bound)

    def conflict_cycles(self) -> float:
        """All p clients on node 0: asymptotic closed-network bound.

        The cycle time is dictated by whichever stage at the hot node
        saturates first — its bank or a target-local interconnect stage.
        """
        bottleneck = max(self.config.bank_service_cycles, self.target_occupancy_cycles)
        return max(
            # Below saturation the hot bank still queues at least as
            # much as a random bank with p clients on it.
            self._fixed_point_wait(clients_per_bank=self.config.p),
            self.shared_stage_bound,
            self.config.p * bottleneck,
        )

    def _fixed_point_wait(self, clients_per_bank: float, max_iter: int = 50) -> float:
        """M/D/1-style fixed point: path plus queueing at one bank with
        the given client load."""
        s = self.config.bank_service_cycles
        t = self.path_cycles
        for _ in range(max_iter):
            rho = min(0.95, clients_per_bank * s / t)
            wait = rho * s / (2.0 * (1.0 - rho))
            t_new = self.path_cycles + wait
            if abs(t_new - t) < 1e-9:
                break
            t = t_new
        return t

    def random_cycles(self) -> float:
        """Uniform bank choice: M/D/1-style fixed point on the wait."""
        t = self._fixed_point_wait(self.config.p / self.config.n_banks)
        return max(t, self.shared_stage_bound)

    def predict(self, pattern: AccessPattern) -> float:
        """Predicted mean access time (cycles) for *pattern*."""
        name = pattern.name.lower()
        if name == "noconflict":
            return self.noconflict_cycles()
        if name == "conflict":
            return self.conflict_cycles()
        if name == "random":
            return self.random_cycles()
        raise ValueError(f"no analytic prediction for pattern {pattern.name!r}")

    def predict_us(self, pattern: AccessPattern) -> float:
        return self.config.cycles_to_us(self.predict(pattern))
