"""Fault-injection overhead benchmark: the disabled path must stay free.

Re-runs the fig2 sample-sort sweep (the same grid as ``bench_perf.py``)
with :mod:`repro.faults` *disarmed* — the default for all experiment
runs — and compares epoch-path events/sec against the committed
``benchmarks/BENCH_perf.json`` epoch baseline.  The integration
sites (network wire, sync engine, membank driver) all guard on
``faults is None`` / ``machine.faults is None``, one load + branch per
site, so the budget matches ``bench_obs.py``/``bench_check.py``:
**< 3%** by default.

It also measures the sweep with a drop+jitter plan *armed* and reports
the slowdown ratio — informational, not gated: retransmits and jitter
are supposed to cost simulated (and therefore wall) time.  Unlike the
sanitizer, arming faults **must change** simulated timings (that is
the product), and the change must be **deterministic**: two armed
passes over the same grid must agree exactly, which
``run_sweep_variant``'s repeat-equality assertion enforces.

Deterministic complement to the timing gate: a disarmed run must
allocate zero :class:`~repro.faults.state.FaultState` objects — if one
shows up, an integration site lost its ``None`` guard.

Usage::

    PYTHONPATH=src python benchmarks/bench_faults.py
    PYTHONPATH=src python benchmarks/bench_faults.py \
        --check benchmarks/BENCH_perf.json --tolerance 0.03
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_perf import run_sweep_variant  # noqa: E402

from repro import faults  # noqa: E402

#: The armed pass's plan: enough perturbation to exercise the
#: retransmit and jitter paths without exploding the run time.
ARMED_SPEC = "drop=0.03,jitter=200,seed=7"


def _live_fault_states() -> int:
    """Number of FaultState objects currently alive (must be 0 disarmed)."""
    import gc

    from repro.faults.state import FaultState

    return sum(isinstance(o, FaultState) for o in gc.get_objects())


def run_benchmark(jobs: int, repeat: int = 5, armed_repeat: int = 1) -> dict:
    faults.disarm()
    disabled = run_sweep_variant("epoch", jobs=jobs, repeat=repeat)
    leaked = _live_fault_states()
    if leaked:
        raise AssertionError(
            f"disarmed run allocated {leaked} FaultState objects; "
            "an integration site is missing its `is None` guard"
        )

    faults.arm(ARMED_SPEC)
    try:
        # repeat>=2 exercises run_sweep_variant's determinism assertion
        # on the armed path: identical fault schedules across passes.
        armed = run_sweep_variant("epoch", jobs=jobs, repeat=max(2, armed_repeat))
        tally = faults.drain_tally()
    finally:
        faults.disarm()

    if disabled["comm_cycles"] == armed["comm_cycles"]:
        raise AssertionError(
            "arming fault injection did not change simulated timings; "
            "the plan is not reaching the machine"
        )
    if not tally.get("fault.drops"):
        raise AssertionError(f"armed sweep recorded no drops (tally: {tally})")
    for rec in (disabled, armed):
        del rec["comm_cycles"]
    return {
        "benchmark": "faults_overhead_fig2_sweep",
        "jobs": jobs,
        "repeat": repeat,
        "host_cpus": os.cpu_count(),
        "armed_spec": ARMED_SPEC,
        "disabled": disabled,
        "armed": armed,
        "armed_slowdown": round(armed["wall_seconds"] / disabled["wall_seconds"], 3),
        "armed_tally": {k: v for k, v in sorted(tally.items())},
    }


def check_overhead(record: dict, baseline_path: str, tolerance: float) -> int:
    """Exit 1 if the *disabled* path regressed beyond tolerance vs the
    committed baseline's epoch-path events/sec."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    base_eps = baseline["epoch"]["events_per_sec"]
    new_eps = record["disabled"]["events_per_sec"]
    floor = base_eps * (1.0 - tolerance)
    overhead = 1.0 - new_eps / base_eps
    print(
        f"[faults] disabled-path events/sec: baseline={base_eps:,.0f}, "
        f"current={new_eps:,.0f} (overhead {overhead:+.1%}), "
        f"floor={floor:,.0f} (tolerance {tolerance:.0%})"
    )
    if new_eps < floor:
        print(
            "[faults] FAIL: disabled-fault-injection overhead exceeds tolerance",
            file=sys.stderr,
        )
        return 1
    print(
        f"[faults] OK (armed slowdown: {record['armed_slowdown']}x with "
        f"{ARMED_SPEC!r}, informational)"
    )
    return 0


def _merge_best(best: dict, new: dict) -> dict:
    """Keep the faster (min-wall) disabled/armed measurements across rounds."""
    if best is None:
        return new
    for key in ("disabled", "armed"):
        if new[key]["wall_seconds"] < best[key]["wall_seconds"]:
            best[key] = new[key]
    best["armed_slowdown"] = round(
        best["armed"]["wall_seconds"] / best["disabled"]["wall_seconds"], 3
    )
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, help="0 = one worker per CPU")
    parser.add_argument(
        "--repeat", type=int, default=5,
        help="disabled passes (best-of; matches the baseline's methodology)",
    )
    parser.add_argument("--output", default=None, help="write the JSON record here")
    parser.add_argument("--check", metavar="BASELINE", help="gate against BENCH_perf.json")
    parser.add_argument("--tolerance", type=float, default=0.03, help="allowed drop")
    parser.add_argument(
        "--retries", type=int, default=3,
        help="measurement rounds for the --check gate; any clean round passes",
    )
    args = parser.parse_args(argv)

    rounds = max(1, args.retries) if args.check else 1
    record = None
    status = 0
    for attempt in range(rounds):
        record = _merge_best(record, run_benchmark(args.jobs, repeat=args.repeat))
        if not args.check:
            break
        status = check_overhead(record, args.check, args.tolerance)
        if status == 0:
            break
        if attempt < rounds - 1:
            print(f"[faults] retrying (round {attempt + 2}/{rounds})...")
    print(json.dumps(record, indent=2))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"[wrote {args.output}]")
    return status


if __name__ == "__main__":
    sys.exit(main())
