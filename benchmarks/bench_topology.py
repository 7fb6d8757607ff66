"""Topology smoke benchmark: flat bit-identity and a small cluster grid.

Two gates, both cheap enough for CI:

* **Flat == legacy.**  The default ``MachineConfig()`` (a flat
  topology) must reproduce the pre-topology golden timings of the
  pinned samplesort point under both sync paths — the topology layer
  may not move the flat machine by a single ULP.
* **Cluster is path-independent.**  A small cores x ratio grid of
  cluster machines must report bit-identical timings under the
  per-message oracle and the vectorized epoch kernel.

Usage::

    PYTHONPATH=src python benchmarks/bench_topology.py        # make bench-topology
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.algorithms.samplesort import run_sample_sort
from repro.machine.config import ClusterTopology, MachineConfig
from repro.qsmlib.config import SoftwareConfig
from repro.qsmlib.program import RunConfig

#: Pre-topology goldens: samplesort p=16 n=8192, rng(42), seed=1 on the
#: flat default machine (same pins as tests/test_topology.py).
GOLDEN_N = 8192
GOLDEN_COMM = 1725971.033437996
GOLDEN_TOTAL = 1752097.8520399856

SMOKE_CORES = [2, 4]
SMOKE_RATIOS = [2.0, 8.0]


def _run(machine: MachineConfig, path: str) -> tuple:
    rng = np.random.default_rng(42)
    out = run_sample_sort(
        rng.integers(0, 2**62, size=GOLDEN_N),
        RunConfig(
            machine=machine,
            software=SoftwareConfig(sync_path=path),
            seed=1,
            check_semantics=False,
        ),
    )
    return out.run.comm_cycles, out.run.total_cycles


def main() -> int:
    t0 = time.perf_counter()
    failures = []

    flat = MachineConfig()
    for path in ("slow", "epoch"):
        comm, total = _run(flat, path)
        ok = comm == GOLDEN_COMM and total == GOLDEN_TOTAL
        print(f"flat    {path:5s}  comm={comm:.6f}  total={total:.6f}  "
              f"{'OK' if ok else 'MISMATCH'}")
        if not ok:
            failures.append(f"flat/{path} drifted from the pre-topology golden")

    net = flat.network
    for cores in SMOKE_CORES:
        for ratio in SMOKE_RATIOS:
            topo = ClusterTopology(
                cores_per_node=cores,
                intra_gap_cycles_per_byte=net.gap_cycles_per_byte / ratio,
                intra_overhead_cycles=net.overhead_cycles / ratio,
                intra_latency_cycles=0.0,
            )
            machine = MachineConfig(topology=topo)
            slow = _run(machine, "slow")
            epoch = _run(machine, "epoch")
            ok = slow == epoch
            print(f"cluster cores={cores} ratio={ratio:g}  "
                  f"comm={epoch[0]:.6f}  {'OK' if ok else 'MISMATCH'}")
            if not ok:
                failures.append(
                    f"cluster cores={cores} ratio={ratio:g}: slow={slow} epoch={epoch}"
                )

    print(f"[bench-topology completed in {time.perf_counter() - t0:.1f}s]")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
