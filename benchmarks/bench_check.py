"""Sanitizer overhead benchmark: the disarmed path must stay free.

Re-runs the fig2 sample-sort sweep (the same grid as ``bench_perf.py``)
with the :mod:`repro.check` phase-conflict sanitizer *disarmed* — the
default for all experiment runs — and compares epoch-path events/sec
against the committed ``benchmarks/BENCH_perf.json`` epoch baseline.  The ``queue.sanitizer is not None``
guards are supposed to cost one load + branch per enqueue call site,
so the budget matches ``bench_obs.py``: **< 3%** by default.

It also measures the sweep with the sanitizer *armed* (warn mode) and
reports the slowdown ratio — informational, not gated: shadow-set
construction is allowed to cost whatever the diagnostics are worth.

Two layers of defence, because shared machines drift more than 3%:

* a **deterministic** allocation probe — a disarmed run must create
  zero ``Diagnostic``/``PhaseSanitizer`` objects, or some integration
  site lost its ``is not None`` guard;
* the **timing** gate vs the committed baseline (``--check``), best-of
  ``--repeat`` passes like ``bench_perf.py``.  Because host CPU
  frequency can swing far more than 3% between measurement windows,
  the gate retries the whole measurement up to ``--retries`` times and
  passes if *any* round clears the floor — scheduler/frequency noise
  only ever adds time, so one clean round proves the code is capable
  of baseline speed.

Arming must also never change *simulated* timings — the sanitizer only
observes request queues, it never adds events — which the benchmark
asserts by comparing total comm cycles between the two passes.

Usage::

    PYTHONPATH=src python benchmarks/bench_check.py
    PYTHONPATH=src python benchmarks/bench_check.py \
        --check benchmarks/BENCH_perf.json --tolerance 0.03
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_perf import run_sweep_variant  # noqa: E402

from repro import check  # noqa: E402


def _live_check_objects() -> int:
    """Number of sanitizer objects currently alive.

    Deterministic complement to the timing gate: a disarmed run must
    allocate *zero* diagnostics/sanitizers, whatever the wall clock
    says.
    """
    import gc

    from repro.check.sanitizer import Diagnostic, PhaseSanitizer

    kinds = (Diagnostic, PhaseSanitizer)
    return sum(isinstance(o, kinds) for o in gc.get_objects())


def run_benchmark(jobs: int, repeat: int = 5, armed_repeat: int = 1) -> dict:
    check.disarm()
    disarmed = run_sweep_variant("epoch", jobs=jobs, repeat=repeat)
    leaked = _live_check_objects()
    if leaked:
        raise AssertionError(
            f"disarmed run allocated {leaked} sanitizer objects; "
            "an integration site is missing its `is not None` guard"
        )

    check.arm("warn")
    try:
        armed = run_sweep_variant("epoch", jobs=jobs, repeat=armed_repeat)
        n_diags = len(check.diagnostics())
    finally:
        check.disarm()

    if disarmed["comm_cycles"] != armed["comm_cycles"]:
        raise AssertionError("arming the sanitizer changed simulated timings")
    if n_diags:
        raise AssertionError(
            f"the fig2 sweep is expected to be sanitizer-clean, got {n_diags} diagnostics"
        )
    for rec in (disarmed, armed):
        del rec["comm_cycles"]
    return {
        "benchmark": "check_overhead_fig2_sweep",
        "jobs": jobs,
        "repeat": repeat,
        "host_cpus": os.cpu_count(),
        "disarmed": disarmed,
        "armed": armed,
        "armed_slowdown": round(armed["wall_seconds"] / disarmed["wall_seconds"], 3),
    }


def check_overhead(record: dict, baseline_path: str, tolerance: float) -> int:
    """Exit 1 if the *disarmed* path regressed beyond tolerance vs the
    committed baseline's epoch-path events/sec."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    base_eps = baseline["epoch"]["events_per_sec"]
    new_eps = record["disarmed"]["events_per_sec"]
    floor = base_eps * (1.0 - tolerance)
    overhead = 1.0 - new_eps / base_eps
    print(
        f"[check] disarmed-path events/sec: baseline={base_eps:,.0f}, "
        f"current={new_eps:,.0f} (overhead {overhead:+.1%}), "
        f"floor={floor:,.0f} (tolerance {tolerance:.0%})"
    )
    if new_eps < floor:
        print(
            "[check] FAIL: disarmed-sanitizer overhead exceeds tolerance",
            file=sys.stderr,
        )
        return 1
    print(
        f"[check] OK (armed-sanitizer slowdown: "
        f"{record['armed_slowdown']}x, informational)"
    )
    return 0


def _merge_best(best: dict, new: dict) -> dict:
    """Keep the faster (min-wall) disarmed/armed measurements across rounds."""
    if best is None:
        return new
    for key in ("disarmed", "armed"):
        if new[key]["wall_seconds"] < best[key]["wall_seconds"]:
            best[key] = new[key]
    best["armed_slowdown"] = round(
        best["armed"]["wall_seconds"] / best["disarmed"]["wall_seconds"], 3
    )
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, help="0 = one worker per CPU")
    parser.add_argument(
        "--repeat", type=int, default=5,
        help="disarmed passes (best-of; matches the baseline's methodology)",
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
            print(f"[check] retrying (round {attempt + 2}/{rounds})...")
    print(json.dumps(record, indent=2))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"[wrote {args.output}]")
    return status


if __name__ == "__main__":
    sys.exit(main())
