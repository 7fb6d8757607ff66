"""The §4 microbenchmark driver.

Each processor issues back-to-back accesses to global memory ("as
quickly as it can"), choosing banks per the access pattern.  The
reported figure of merit is the mean access time once the system is in
steady state (a warm-up prefix is discarded, mirroring the paper's use
of arrays too large to cache — there is no cold-cache transient to
measure).

An access is software overhead, the interconnect's trip to the bank,
one hold of the bank (a single-slot FCFS resource after the
interconnect's own), an injected stall if the fault plan schedules one,
and the trip back; :func:`~repro.membank.kernel.replay` runs every
processor's accesses on one event calendar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import faults as _faults
from repro import obs as _obs
from repro.membank.kernel import DELAY, STALL, replay
from repro.membank.machines import MemoryMachineConfig
from repro.membank.patterns import AccessPattern
from repro.sim import Simulator
from repro.util.rng import spawn_rngs


@dataclass
class MicrobenchResult:
    """Outcome of one (machine, pattern) microbenchmark run."""

    machine: str
    pattern: str
    p: int
    accesses_per_proc: int
    mean_access_cycles: float
    mean_access_us: float
    per_proc_mean_cycles: np.ndarray
    max_bank_utilization: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.machine:14s} {self.pattern:10s} "
            f"{self.mean_access_us:10.3f} us/access"
        )


def _choose_banks(
    pattern: AccessPattern, rng: np.random.Generator, pid: int, n_banks: int, count: int
) -> List[int]:
    """The pattern's *count* target banks for *pid*, checked in range."""
    banks = [int(b) for b in pattern.choose(rng, pid, n_banks, count)[:count]]
    if len(banks) < count:
        raise ValueError(
            f"pattern {pattern.name!r} chose {len(banks)} banks for {count} accesses"
        )
    for bank in (min(banks), max(banks)):
        if not 0 <= bank < n_banks:
            raise ValueError(
                f"pattern {pattern.name!r} chose bank {bank} on processor {pid}, "
                f"out of range (0..{n_banks - 1})"
            )
    return banks


def run_microbenchmark(
    config: MemoryMachineConfig,
    pattern: AccessPattern,
    accesses_per_proc: int = 2000,
    warmup: Optional[int] = None,
    seed: int = 0,
    fault_plan=None,
) -> MicrobenchResult:
    """Run the stress microbenchmark; returns steady-state access times.

    *fault_plan* pins a :class:`~repro.faults.plan.FaultPlan` for this
    run; when ``None`` the process-global plan (if armed) applies.  Only
    the plan's membank axis acts here: a stalled access waits
    ``bank_stall_cycles`` after its bank service, on a per-pid seeded
    schedule independent of the interleaving.
    """
    if accesses_per_proc < 1:
        raise ValueError("need at least one access per processor")
    warmup = accesses_per_proc // 10 if warmup is None else warmup
    if not 0 <= warmup < accesses_per_proc:
        raise ValueError(
            f"warmup ({warmup}) must be >= 0 and < accesses ({accesses_per_proc})"
        )

    p, n_banks = config.p, config.n_banks
    rngs = spawn_rngs(seed, p)
    banks = [
        _choose_banks(pattern, rngs[pid], pid, n_banks, accesses_per_proc) for pid in range(p)
    ]

    sim = Simulator()
    _obs.attach(sim, label=f"membank {config.name}/{pattern.name} p={p}")
    fstate = _faults.state_for(fault_plan, p, salt=seed)
    if fstate is not None and sim.obs is not None:
        sim.obs.add_finalizer(fstate.harvest_obs)
    interconnect = config.make_interconnect()
    # Banks are single-slot resources numbered after the interconnect's.
    first_bank = len(interconnect.capacities)
    capacities = tuple(interconnect.capacities) + (1,) * n_banks
    software = ((DELAY, config.software_cycles),) if config.software_cycles else ()

    def access(pid: int, bank: int, stall: tuple) -> tuple:
        return (
            software
            + interconnect.trip(pid, bank)
            + ((first_bank + bank, config.bank_service_cycles),)
            + stall
            + interconnect.trip(bank, pid)
        )

    programs = []
    for pid in range(p):
        plain = [access(pid, bank, ()) for bank in range(n_banks)]
        stalls = None if fstate is None else fstate.bank_stall_mask(pid, accesses_per_proc)
        if stalls is None:
            programs.append([plain[bank] for bank in banks[pid]])
            continue
        # Injected stall burst: the access waits extra time after its
        # bank service (a refresh/contention hiccup).
        stall_cycles = fstate.plan.bank_stall_cycles
        stall = ((STALL, stall_cycles),)
        stalled = [access(pid, bank, stall) for bank in range(n_banks)]
        programs.append([
            stalled[bank] if hit else plain[bank]
            for bank, hit in zip(banks[pid], stalls.tolist())
        ])
        # Every access runs, so every scheduled stall is tallied.
        for _ in range(int(stalls.sum())):
            fstate.record_bank_stall(stall_cycles)

    run = replay(capacities, programs, warmup, sim=sim, banks=banks)
    stats = run.stats
    bank_utilization = [run.utilization(first_bank + b) for b in range(n_banks)]

    if sim.obs is not None:
        m = sim.obs.metrics
        m.counter("membank.accesses").inc(p * accesses_per_proc)
        hist = m.histogram("membank.access_cycles")
        for s in stats:
            hist.fold_tally(s)
        util = m.gauge("membank.bank_utilization")
        for u in bank_utilization:
            util.set(u)
        sim.obs.finalize()
    if fstate is not None:
        # After finalize: the obs harvester must see live counters.
        _faults.absorb(fstate)

    per_proc = np.array([s.mean for s in stats])
    total = float(
        sum(s.mean * s.count for s in stats) / max(1, sum(s.count for s in stats))
    )
    return MicrobenchResult(
        machine=config.name,
        pattern=pattern.name,
        p=p,
        accesses_per_proc=accesses_per_proc,
        mean_access_cycles=total,
        mean_access_us=config.cycles_to_us(total),
        per_proc_mean_cycles=per_proc,
        max_bank_utilization=max(bank_utilization),
    )


def pattern_sweep(
    config: MemoryMachineConfig,
    patterns,
    accesses_per_proc: int = 2000,
    seed: int = 0,
) -> Dict[str, MicrobenchResult]:
    """Run several patterns on one machine; returns results by pattern name."""
    return {
        pat.name: run_microbenchmark(config, pat, accesses_per_proc=accesses_per_proc, seed=seed)
        for pat in patterns
    }
