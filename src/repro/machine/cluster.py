"""Machine assembly: one simulator, p nodes, one network.

A :class:`Machine` is created fresh for each simulated run (the
simulator clock and statistics start at zero).
"""

from __future__ import annotations

from typing import List

from repro import faults as _faults
from repro import obs
from repro.machine.config import MachineConfig
from repro.machine.cpu import CPUModel
from repro.machine.network import Network
from repro.sim import Simulator


class Machine:
    """A ready-to-run simulated multiprocessor.

    ``fault_salt`` (typically the run seed) is mixed into the fault
    RNG streams when a :class:`~repro.faults.plan.FaultPlan` is in
    force — either pinned on the config or armed process-globally —
    so each simulated run draws its own reproducible fault schedule.
    ``machine.faults`` is ``None`` on the (default) unperturbed path.
    """

    def __init__(self, config: MachineConfig, fault_salt: int = 0) -> None:
        self.config = config
        self.sim = Simulator()
        # When observability is on, the observer must exist before the
        # network is built so the network can register its harvester.
        obs.attach(self.sim, label=f"machine p={config.p}")
        self.faults = _faults.state_for(config.faults, config.p, salt=fault_salt)
        if self.faults is not None and self.sim.obs is not None:
            self.sim.obs.add_finalizer(self.faults.harvest_obs)
        self.network = Network(
            self.sim, config.network, config.p, faults=self.faults,
            topology=config.topology,
        )
        # Identical nodes share one model: it holds only memos of pure
        # functions of the node config.
        self.cpus: List[CPUModel] = [CPUModel.for_node(config.node)] * config.p

    @property
    def p(self) -> int:
        return self.config.p

    def cycles_to_us(self, cycles: float) -> float:
        return cycles / self.config.node.clock_hz * 1e6

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        net = self.config.network
        return (
            f"<Machine p={self.p} g={net.gap_cycles_per_byte}c/B "
            f"o={net.overhead_cycles} l={net.latency_cycles}>"
        )
