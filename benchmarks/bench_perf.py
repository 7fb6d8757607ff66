"""Simulator performance benchmark: the Figure 2 sample-sort sweep.

Runs the fig2 grid (p=16, fast-mode n values, 3 reps) once per sync
path — the per-message ``slow`` oracle and the vectorized ``epoch``
kernel — and records wall-clock seconds, total kernel events,
events/second, and peak RSS for each, plus the speedup and a
bit-identity verdict on the simulated timings (``comm_cycles``
equality across every sweep point).

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py                # print + write
    PYTHONPATH=src python benchmarks/bench_perf.py --jobs 0       # all CPUs
    PYTHONPATH=src python benchmarks/bench_perf.py --smoke        # reduced CI grid
    PYTHONPATH=src python benchmarks/bench_perf.py \
        --check benchmarks/BENCH_perf.json                       # regression gate

``--check BASELINE`` compares the fresh epoch-path events/sec against
the committed baseline and exits non-zero if it has regressed by more
than ``--tolerance`` (default 20%) — this is what ``make bench`` runs.
``--smoke`` shrinks the grid to one pass so CI can cheaply assert that
both paths still report bit-identical timings; it always fails the run
on a timing mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

from repro.experiments.executor import clear_memo, effective_jobs, parallel_map
from repro.machine.config import MachineConfig
from repro.qsmlib.config import SoftwareConfig

#: The fig2 --fast grid (see repro.experiments.fig2_samplesort.FAST_NS).
SWEEP_NS = [8192, 65536, 250000]
SWEEP_REPS = 3
SWEEP_SEED = 0

#: Reduced grid for ``--smoke`` (CI): one mid-size point, one rep.
SMOKE_NS = [65536]
SMOKE_REPS = 1

#: Measurement order: slowest first so the committed record reads
#: oracle -> optimised.
SYNC_PATHS = ("slow", "epoch")


def _bench_point(task) -> tuple:
    """One sweep point; returns (comm_cycles, sim_events).

    Module-level so it pickles for --jobs > 1; mirrors
    ``repro.experiments.sweeps._sweep_point_task`` on a point whose
    program it has not run yet (it never prices a recorded run), but
    also reports the kernel event count the events/sec metric needs.
    """
    from repro.algorithms.samplesort import run_sample_sort
    from repro.qsmlib.program import RunConfig

    machine, n, run_seed, sync_path = task
    rng = np.random.default_rng(run_seed)
    out = run_sample_sort(
        rng.integers(0, 2**62, size=n),
        RunConfig(
            machine=machine,
            software=SoftwareConfig(sync_path=sync_path),
            seed=run_seed,
            check_semantics=False,
        ),
    )
    return out.run.comm_cycles, out.run.sim_events


def _peak_rss_mb() -> float:
    """Peak resident set size of this process and its children, in MiB."""
    ru_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ru_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    kb = max(ru_self, ru_children)
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        kb /= 1024.0
    return kb / 1024.0


def run_sweep_variant(
    sync_path: str, jobs: int = 1, repeat: int = 3, ns=None, reps=None
) -> dict:
    """Run the whole grid on one sync path ("slow" / "epoch"); returns
    the measurement record.

    The grid is repeated ``repeat`` times and the *minimum* wall time is
    reported — the standard estimator for "how fast is the code", since
    scheduler and frequency noise only ever add time.  Each pass starts
    from an empty point memo, so every pass simulates the whole grid.
    """
    machine = MachineConfig()  # p=16, Table 2/3 defaults
    tasks = [
        (machine, n, SWEEP_SEED + 1000 * r + 1, sync_path)
        for n in (SWEEP_NS if ns is None else ns)
        for r in range(SWEEP_REPS if reps is None else reps)
    ]
    wall = float("inf")
    results = None
    for _ in range(max(1, repeat)):
        clear_memo()
        t0 = time.perf_counter()
        pass_results = parallel_map(_bench_point, tasks, jobs=jobs)
        wall = min(wall, time.perf_counter() - t0)
        if results is not None and pass_results != results:
            raise AssertionError("non-deterministic sweep results across repeats")
        results = pass_results
    events = int(sum(ev for _comm, ev in results))
    return {
        "wall_seconds": round(wall, 4),
        "sim_events": events,
        "events_per_sec": round(events / wall, 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "comm_cycles": [comm for comm, _ev in results],
    }


def run_benchmark(jobs: int, repeat: int = 3, smoke: bool = False) -> dict:
    ns = SMOKE_NS if smoke else None
    reps = SMOKE_REPS if smoke else None
    variants = {
        path: run_sweep_variant(sync_path=path, jobs=jobs, repeat=repeat, ns=ns, reps=reps)
        for path in SYNC_PATHS
    }
    pairs = {
        "epoch_vs_slow": variants["epoch"]["comm_cycles"] == variants["slow"]["comm_cycles"],
    }
    for rec in variants.values():
        del rec["comm_cycles"]  # raw per-point data, not a benchmark metric
    record = {
        "benchmark": "fig2_samplesort_sweep" + ("_smoke" if smoke else ""),
        "machine_p": MachineConfig().p,
        "ns": SMOKE_NS if smoke else SWEEP_NS,
        "reps": SMOKE_REPS if smoke else SWEEP_REPS,
        "seed": SWEEP_SEED,
        "jobs": effective_jobs(jobs),
        "repeat": repeat,
        "host_cpus": os.cpu_count(),
        "sync_paths": list(SYNC_PATHS),
    }
    record.update(variants)
    record.update(
        {
            "speedup": round(
                variants["slow"]["wall_seconds"] / variants["epoch"]["wall_seconds"], 3
            ),
            "event_ratio": round(
                variants["slow"]["sim_events"] / variants["epoch"]["sim_events"], 3
            ),
            "timings_identical_pairs": pairs,
            "timings_identical": all(pairs.values()),
        }
    )
    return record


def check_regression(record: dict, baseline_path: str, tolerance: float) -> int:
    """Exit status 1 if epoch-path events/sec regressed beyond tolerance."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    base_eps = baseline["epoch"]["events_per_sec"]
    new_eps = record["epoch"]["events_per_sec"]
    floor = base_eps * (1.0 - tolerance)
    print(
        f"[check] epoch-path events/sec: baseline={base_eps:,.0f}, "
        f"current={new_eps:,.0f}, floor={floor:,.0f} (tolerance {tolerance:.0%})"
    )
    if new_eps < floor:
        print("[check] FAIL: events/sec regressed beyond tolerance", file=sys.stderr)
        return 1
    if not record["timings_identical"]:
        print(
            "[check] FAIL: sync paths disagreed on simulated timings: "
            f"{record['timings_identical_pairs']}",
            file=sys.stderr,
        )
        return 1
    print("[check] OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, help="0 = one worker per CPU")
    parser.add_argument("--repeat", type=int, default=3, help="passes per variant (best-of)")
    parser.add_argument("--output", default=None, help="write the JSON record here")
    parser.add_argument("--check", metavar="BASELINE", help="compare against a baseline JSON")
    parser.add_argument("--tolerance", type=float, default=0.2, help="allowed events/sec drop")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced grid for CI; fails on any cross-path timing mismatch",
    )
    args = parser.parse_args(argv)

    record = run_benchmark(args.jobs, repeat=1 if args.smoke else args.repeat, smoke=args.smoke)
    print(json.dumps(record, indent=2))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"[wrote {args.output}]")
    if args.smoke and not record["timings_identical"]:
        print(
            f"[smoke] FAIL: sync paths disagreed: {record['timings_identical_pairs']}",
            file=sys.stderr,
        )
        return 1
    if args.check:
        return check_regression(record, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
