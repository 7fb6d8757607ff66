"""Observability overhead benchmark: the disabled path must stay free.

Re-runs the fig2 sample-sort sweep (the same grid as
``bench_perf.py``) with observability *disabled* — the default for all
experiment runs — and compares epoch-path events/sec against the
committed ``benchmarks/BENCH_perf.json`` epoch baseline, which predates
the epoch kernel's own span instrumentation.  The ``sim.obs is not None`` guards are supposed to
cost one load + branch per site, so the budget is tight: **< 3%** by
default (vs the 20% whole-benchmark gate in ``run_perf.sh``).

It also measures the sweep with collection *enabled* (spans + metrics)
and reports the slowdown ratio — informational, not gated: recording
is allowed to cost whatever the records are worth.

Two layers of defence, because shared machines drift more than 3%:

* a **deterministic** allocation probe — a disabled run must create
  zero ``Span``/``RunCapture``/``Observer`` objects, or some
  instrumentation site lost its ``sim.obs`` guard;
* the **timing** gate vs the committed baseline (``--check``), best-of
  ``--repeat`` passes like ``bench_perf.py``.  On a noisy host, re-run
  or raise ``--repeat`` before trusting a timing failure that the
  allocation probe does not corroborate.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py
    PYTHONPATH=src python benchmarks/bench_obs.py \
        --check benchmarks/BENCH_perf.json --tolerance 0.03
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_perf import run_sweep_variant  # noqa: E402

from repro import obs  # noqa: E402


def _live_obs_objects() -> int:
    """Number of observability record objects currently alive.

    Deterministic complement to the timing gate: a disabled run must
    allocate *zero* spans/captures/observers, whatever the wall clock
    says (shared machines are easily noisier than the 3% budget).
    """
    import gc

    from repro.obs.spans import Observer, RunCapture, Span

    kinds = (Span, RunCapture, Observer)
    return sum(isinstance(o, kinds) for o in gc.get_objects())


def run_benchmark(jobs: int, repeat: int = 5, enabled_repeat: int = 1) -> dict:
    obs.disable()
    disabled = run_sweep_variant("epoch", jobs=jobs, repeat=repeat)
    leaked = _live_obs_objects()
    if leaked:
        raise AssertionError(
            f"disabled run allocated {leaked} observability objects; "
            "an instrumentation site is missing its sim.obs guard"
        )

    obs.enable()
    try:
        enabled = run_sweep_variant("epoch", jobs=jobs, repeat=enabled_repeat)
        n_spans = sum(len(run.spans) for run in obs.runs())
    finally:
        obs.disable()

    if disabled["comm_cycles"] != enabled["comm_cycles"]:
        raise AssertionError("observability changed simulated timings")
    for rec in (disabled, enabled):
        del rec["comm_cycles"]
    return {
        "benchmark": "obs_overhead_fig2_sweep",
        "jobs": jobs,
        "repeat": repeat,
        "host_cpus": os.cpu_count(),
        "disabled": disabled,
        "enabled": enabled,
        "enabled_slowdown": round(
            enabled["wall_seconds"] / disabled["wall_seconds"], 3
        ),
        "spans_recorded_last_pass": n_spans,
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
        f"[check] disabled-path events/sec: baseline={base_eps:,.0f}, "
        f"current={new_eps:,.0f} (overhead {overhead:+.1%}), "
        f"floor={floor:,.0f} (tolerance {tolerance:.0%})"
    )
    if new_eps < floor:
        print(
            "[check] FAIL: disabled-observability overhead exceeds tolerance",
            file=sys.stderr,
        )
        return 1
    print(
        f"[check] OK (enabled-collection slowdown: "
        f"{record['enabled_slowdown']}x, informational)"
    )
    return 0


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
    args = parser.parse_args(argv)

    record = run_benchmark(args.jobs, repeat=args.repeat)
    print(json.dumps(record, indent=2))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"[wrote {args.output}]")
    if args.check:
        return check_overhead(record, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
