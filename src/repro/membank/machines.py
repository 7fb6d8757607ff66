"""The four platforms of Figure 7, as queueing-model parameter sets.

Parameters are derived from the platforms' published characteristics
(§4): a 166 MHz 8-processor/8-bank Sun UltraEnterprise, the same SMP
accessed through BSPlib's shared-memory layer (level-1 and level-2
optimisation), a sixteen-node 166 MHz UltraSPARC cluster on 10 Mb/s
Ethernet running BSPlib over TCP, and 32 nodes of a Cray T3E using
shmem.  Absolute magnitudes are approximate by design — what Figure 7
establishes (and the reproduction preserves) is the *relative* cost of
the Random / Conflict / NoConflict patterns on each memory
architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.membank.interconnect import (
    BusInterconnect,
    EthernetInterconnect,
    Interconnect,
    TorusInterconnect,
)
from repro.util.validation import check_nonnegative, check_positive


@dataclass(frozen=True)
class MemoryMachineConfig:
    """One platform of the §4 microbenchmark."""

    name: str
    #: Number of benchmark processes.
    p: int
    #: Number of memory banks / served memory nodes.
    n_banks: int
    #: Bank busy time per access, in CPU cycles.
    bank_service_cycles: float
    #: Per-access software overhead at the accessing processor
    #: (0 for hardware shared memory; large for BSPlib/TCP layers).
    software_cycles: float
    #: Factory building the interconnect description.
    make_interconnect: Callable[[], Interconnect] = field(compare=False)
    #: Processor clock, for reporting in microseconds.
    clock_hz: float = 166e6

    def __post_init__(self) -> None:
        if self.p < 1 or self.n_banks < 1:
            raise ValueError("p and n_banks must be >= 1")
        check_positive("bank_service_cycles", self.bank_service_cycles)
        check_nonnegative("software_cycles", self.software_cycles)
        check_positive("clock_hz", self.clock_hz)

    def cycles_to_us(self, cycles: float) -> float:
        return cycles / self.clock_hz * 1e6


def smp_native(p: int = 8) -> MemoryMachineConfig:
    """8-processor, 8-bank Sun UltraEnterprise, hardware coherence.

    166 MHz processors; ~90 ns of DRAM bank busy time per 64-byte
    line (15 cycles); a split-transaction bus with ~4-cycle
    address/snoop occupancy, two outstanding transactions.
    """
    return MemoryMachineConfig(
        name="SMP-NATIVE",
        p=p,
        n_banks=8,
        bank_service_cycles=15.0,
        software_cycles=0.0,
        make_interconnect=lambda: BusInterconnect(occupancy_cycles=4.0, width=2),
    )


def smp_bsplib_l2(p: int = 8) -> MemoryMachineConfig:
    """Same SMP through BSPlib's optimised ("level-2") library.

    The SYSV-shared-memory put/get fast path costs ~0.5 us of library
    code per access (~85 cycles at 166 MHz).
    """
    base = smp_native(p)
    return MemoryMachineConfig(
        name="SMP-BSPlib-L2",
        p=p,
        n_banks=base.n_banks,
        bank_service_cycles=base.bank_service_cycles,
        software_cycles=85.0,
        make_interconnect=lambda: BusInterconnect(occupancy_cycles=4.0, width=2),
    )


def smp_bsplib_l1(p: int = 8) -> MemoryMachineConfig:
    """Same SMP through the unoptimised ("level-1") BSPlib build (~2 us)."""
    base = smp_native(p)
    return MemoryMachineConfig(
        name="SMP-BSPlib-L1",
        p=p,
        n_banks=base.n_banks,
        bank_service_cycles=base.bank_service_cycles,
        software_cycles=340.0,
        make_interconnect=lambda: BusInterconnect(occupancy_cycles=4.0, width=2),
    )


def now_bsplib(p: int = 16) -> MemoryMachineConfig:
    """Sixteen 166 MHz UltraSPARCs, BSPlib over TCP on 10 Mb/s Ethernet.

    A remote word costs a request and a reply frame: ~128 bytes with
    TCP/IP headers = ~102 us of exclusive segment time per frame
    (17000 cycles at 166 MHz), plus ~60 us of protocol stack per
    message (10000 cycles).  The "bank" is the serving node's protocol
    stack (~30 us per served request).
    """
    return MemoryMachineConfig(
        name="NOW-BSPlib",
        p=p,
        n_banks=p,
        bank_service_cycles=5000.0,
        software_cycles=10000.0,
        make_interconnect=lambda: EthernetInterconnect(
            n_nodes=p, frame_cycles=17000.0, stack_cycles=10000.0
        ),
    )


def cray_t3e(p: int = 32) -> MemoryMachineConfig:
    """32 nodes of a Cray T3E, shmem access over the 3-D torus.

    450 MHz clock; ~120 ns end-to-end remote latency split into router
    hops (~9 cycles/hop), with the E-register/bank pipeline able to
    accept a new access every ~13 cycles (29 ns).
    """
    return MemoryMachineConfig(
        name="Cray-T3E",
        p=p,
        n_banks=p,
        bank_service_cycles=13.0,
        software_cycles=12.0,
        make_interconnect=lambda: TorusInterconnect(
            n_nodes=p, hop_cycles=9.0, inject_cycles=18.0
        ),
        clock_hz=450e6,
    )


#: Figure 7's platform set, keyed by display name.
MEMBANK_MACHINES: Dict[str, Callable[[], MemoryMachineConfig]] = {
    "SMP-NATIVE": smp_native,
    "SMP-BSPlib-L2": smp_bsplib_l2,
    "SMP-BSPlib-L1": smp_bsplib_l1,
    "NOW-BSPlib": now_bsplib,
    "Cray-T3E": cray_t3e,
}
