"""The generator-process model of the §4 microbenchmark, kept as the
oracle for the flat kernel (:mod:`repro.membank.kernel`).

This is the model the microbenchmark ran on before the kernel replaced
it: every processor is a generator process on
:class:`~repro.sim.Simulator`, and banks and shared links are
:class:`~repro.sim.Resource` servers.  The interconnect models take
their parameters from the library's interconnect descriptions.
``tests/test_membank_kernel.py`` checks that both agree bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import faults as _faults
from repro import obs as _obs
from repro.membank.interconnect import (
    BusInterconnect,
    EthernetInterconnect,
    TorusInterconnect,
)
from repro.membank.machines import MemoryMachineConfig
from repro.membank.microbench import MicrobenchResult
from repro.membank.patterns import AccessPattern
from repro.sim import Resource, Simulator
from repro.sim.monitor import TallyStat
from repro.util.rng import spawn_rngs


class BankArray:
    """An array of memory banks, each a single-ported FCFS server."""

    def __init__(self, sim: Simulator, n_banks: int, service_cycles: float) -> None:
        self.sim = sim
        self.n_banks = n_banks
        self.service_cycles = service_cycles
        self.banks: List[Resource] = [
            Resource(sim, capacity=1, name=f"bank{i}") for i in range(n_banks)
        ]
        self.wait_stat = TallyStat()

    def access(self, bank: int):
        """Generator: queue at *bank* and hold it for one service."""
        if not 0 <= bank < self.n_banks:
            raise ValueError(f"bank {bank} out of range (0..{self.n_banks - 1})")
        t0 = self.sim.now
        req = self.banks[bank].request()
        yield req
        self.wait_stat.record(self.sim.now - t0)
        yield self.sim.timeout(self.service_cycles)
        self.banks[bank].release(req)

    def utilization(self, bank: int) -> float:
        """Time-averaged busy fraction of *bank*."""
        return self.banks[bank].busy_stat.time_average()


class Bus:
    """:class:`~repro.membank.interconnect.BusInterconnect` as processes."""

    def __init__(self, sim: Simulator, ic: BusInterconnect) -> None:
        self.sim = sim
        self.occupancy_cycles = ic.occupancy_cycles
        self.bus = Resource(sim, capacity=ic.width, name="bus")

    def request_path(self, pid: int, bank: int):
        yield from self.bus.serve(self.occupancy_cycles)

    def response_path(self, pid: int, bank: int):
        yield from self.bus.serve(self.occupancy_cycles)


class Ethernet:
    """:class:`~repro.membank.interconnect.EthernetInterconnect` as
    processes."""

    def __init__(self, sim: Simulator, ic: EthernetInterconnect) -> None:
        self.sim = sim
        self.n_nodes = ic.n_nodes
        self.frame_cycles = ic.frame_cycles
        self.stack_cycles = ic.stack_cycles
        self.propagation_cycles = ic.propagation_cycles
        self.egress = [Resource(sim, capacity=1, name=f"eth{i}.out") for i in range(ic.n_nodes)]
        self.ingress = [Resource(sim, capacity=1, name=f"eth{i}.in") for i in range(ic.n_nodes)]

    def _one_way(self, src: int, dst: int):
        yield self.sim.timeout(self.stack_cycles)
        yield from self.egress[src % self.n_nodes].serve(self.frame_cycles)
        yield from self.ingress[dst % self.n_nodes].serve(self.frame_cycles)
        if self.propagation_cycles:
            yield self.sim.timeout(self.propagation_cycles)

    def request_path(self, pid: int, bank: int):
        yield from self._one_way(pid, bank)

    def response_path(self, pid: int, bank: int):
        yield from self._one_way(bank, pid)


class Torus:
    """:class:`~repro.membank.interconnect.TorusInterconnect` as
    processes."""

    def __init__(self, sim: Simulator, ic: TorusInterconnect) -> None:
        self.sim = sim
        self.hop_cycles = ic.hop_cycles
        self.inject_cycles = ic.inject_cycles
        self.avg_hops = ic.avg_hops

    def _one_way(self):
        yield self.sim.timeout(self.inject_cycles + self.avg_hops * self.hop_cycles)

    def request_path(self, pid: int, bank: int):
        yield from self._one_way()

    def response_path(self, pid: int, bank: int):
        yield from self._one_way()


_MODELS = {BusInterconnect: Bus, EthernetInterconnect: Ethernet, TorusInterconnect: Torus}


def run_oracle(
    config: MemoryMachineConfig,
    pattern: AccessPattern,
    accesses_per_proc: int = 2000,
    warmup: Optional[int] = None,
    seed: int = 0,
    fault_plan=None,
):
    """The microbenchmark on generator processes; returns
    ``(MicrobenchResult, simulator)``."""
    if accesses_per_proc < 1:
        raise ValueError("need at least one access per processor")
    warmup = accesses_per_proc // 10 if warmup is None else warmup
    if warmup >= accesses_per_proc:
        raise ValueError(f"warmup ({warmup}) must be < accesses ({accesses_per_proc})")

    sim = Simulator()
    _obs.attach(sim, label=f"membank {config.name}/{pattern.name} p={config.p}")
    fstate = _faults.state_for(fault_plan, config.p, salt=seed)
    if fstate is not None and sim.obs is not None:
        sim.obs.add_finalizer(fstate.harvest_obs)
    banks = BankArray(sim, config.n_banks, config.bank_service_cycles)
    description = config.make_interconnect()
    interconnect = _MODELS[type(description)](sim, description)
    rngs = spawn_rngs(seed, config.p)
    stats: List[TallyStat] = [TallyStat() for _ in range(config.p)]

    def proc(pid: int):
        obs = sim.obs
        targets = pattern.choose(rngs[pid], pid, config.n_banks, accesses_per_proc)
        stalls = None if fstate is None else fstate.bank_stall_mask(pid, accesses_per_proc)
        stall_cycles = 0.0 if fstate is None else fstate.plan.bank_stall_cycles
        for k in range(accesses_per_proc):
            t0 = sim.now
            bank = int(targets[k])
            if obs is not None:
                span = obs.begin("membank.access", pid, bank=bank, warm=k >= warmup)
            if config.software_cycles:
                yield sim.timeout(config.software_cycles)
            yield from interconnect.request_path(pid, bank)
            yield from banks.access(bank)
            if stalls is not None and stalls[k]:
                # Injected stall burst: the bank holds this access for
                # extra service time (a refresh/contention hiccup).
                fstate.record_bank_stall(stall_cycles)
                if obs is not None:
                    obs.instant("fault.bank_stall", pid, bank=bank, cycles=stall_cycles)
                yield sim.timeout(stall_cycles)
            yield from interconnect.response_path(pid, bank)
            if obs is not None:
                obs.end(span)
            if k >= warmup:
                stats[pid].record(sim.now - t0)

    procs = [sim.process(proc(pid)) for pid in range(config.p)]
    sim.run()
    for pr in procs:
        pr.value  # surface any process failure

    if sim.obs is not None:
        m = sim.obs.metrics
        m.counter("membank.accesses").inc(config.p * accesses_per_proc)
        hist = m.histogram("membank.access_cycles")
        for s in stats:
            hist.fold_tally(s)
        util = m.gauge("membank.bank_utilization")
        for b in range(config.n_banks):
            util.set(banks.utilization(b))
        sim.obs.finalize()
    if fstate is not None:
        # After finalize: the obs harvester must see live counters.
        _faults.absorb(fstate)

    per_proc = np.array([s.mean for s in stats])
    total = float(
        sum(s.mean * s.count for s in stats) / max(1, sum(s.count for s in stats))
    )
    util = max(banks.utilization(b) for b in range(config.n_banks))
    result = MicrobenchResult(
        machine=config.name,
        pattern=pattern.name,
        p=config.p,
        accesses_per_proc=accesses_per_proc,
        mean_access_cycles=total,
        mean_access_us=config.cycles_to_us(total),
        per_proc_mean_cycles=per_proc,
        max_bank_utilization=util,
    )
    return result, sim
