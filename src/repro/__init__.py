"""Reproduction of *Experimental Evaluation of QSM, a Simple
Shared-Memory Model* (Grayson, Dahlin, Ramachandran; UTCS TR98-21 /
IPPS 1999).

Top-level packages:

* :mod:`repro.predict` — the prediction model engine: the per-phase
  cost record, the QSM/BSP/LogP model registry and the per-algorithm
  profile sources behind every prediction line;
* :mod:`repro.core` — Chernoff machinery, the BSP parameter set, and
  the QSM-on-BSP emulation and PRAM cost models;
* :mod:`repro.qsmlib` — the bulk-synchronous shared-memory library
  (get/put/sync) and the SPMD program driver;
* :mod:`repro.machine` — the simulated multiprocessor (node cost
  model, parametric network) standing in for Armadillo;
* :mod:`repro.msg` — message passing and the tree barrier's shape and
  cost on the simulated network;
* :mod:`repro.sim` — the deterministic discrete-event kernel;
* :mod:`repro.algorithms` — prefix sums, sample sort, list ranking
  (QSM programs) plus sequential baselines;
* :mod:`repro.membank` — the §4 memory-bank contention microbenchmark;
* :mod:`repro.experiments` — one regeneration target per paper
  table/figure;
* :mod:`repro.analysis` — error metrics, crossovers, extrapolation.
"""

__version__ = "1.0.0"
