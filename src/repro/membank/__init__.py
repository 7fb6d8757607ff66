"""Memory-bank contention microbenchmark (paper §4, Figure 7).

QSM omits memory-bank contention (``h_r``) from its cost model,
betting that randomised data layout keeps it tolerable.  The paper
tests that bet with a stress microbenchmark on four real platforms; we
rebuild the experiment as a closed-loop queueing simulation:

* **banks** are single-slot FCFS servers with a fixed service time;
* **interconnects** describe how an access reaches a bank as a tuple
  of delay and hold stages — a split-transaction snooping bus (SMP),
  TCP over shared 10 Mb/s Ethernet (NOW), or a 3-D torus with per-hop
  latency (Cray T3E);
* **software layers** add per-access overhead (native hardware
  coherence vs. BSPlib level-1/level-2);
* **patterns** choose the target bank: ``RANDOM`` (the layout QSM's
  runtime achieves by hashing), ``CONFLICT`` (every access to bank 0 —
  an unmitigated hot spot), ``NOCONFLICT`` (processor *i* owns bank
  ``i+1`` — the hand-placed ideal).

:func:`~repro.membank.microbench.run_microbenchmark` replays every
processor's accesses on one event calendar
(:func:`~repro.membank.kernel.replay`) and reports the mean remote
access time, reproducing Figure 7's qualitative result:
NoConflict ≤ Random ≪ Conflict, with Random within tens of percent of
NoConflict and Conflict a factor 2–4 worse.
"""

from repro.membank.analytic import AnalyticAccessModel
from repro.membank.interconnect import (
    BusInterconnect,
    EthernetInterconnect,
    Interconnect,
    TorusInterconnect,
)
from repro.membank.machines import (
    MemoryMachineConfig,
    MEMBANK_MACHINES,
    cray_t3e,
    now_bsplib,
    smp_bsplib_l1,
    smp_bsplib_l2,
    smp_native,
)
from repro.membank.patterns import AccessPattern, CONFLICT, NOCONFLICT, RANDOM
from repro.membank.microbench import MicrobenchResult, run_microbenchmark

__all__ = [
    "AnalyticAccessModel",
    "Interconnect",
    "BusInterconnect",
    "EthernetInterconnect",
    "TorusInterconnect",
    "MemoryMachineConfig",
    "MEMBANK_MACHINES",
    "smp_native",
    "smp_bsplib_l1",
    "smp_bsplib_l2",
    "now_bsplib",
    "cray_t3e",
    "AccessPattern",
    "RANDOM",
    "CONFLICT",
    "NOCONFLICT",
    "MicrobenchResult",
    "run_microbenchmark",
]
