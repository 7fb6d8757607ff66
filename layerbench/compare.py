"""Compare two sets of layered-benchmark runs.

Usage (from the repository root)::

    python3 layerbench/compare.py A.jsonl B.jsonl [--json OUT]

Each file holds run records as ``bench_layers.py --output`` appends
them, one JSON object per line.  A is the reference (the parent commit),
B the candidate.  For every workload and end-to-end metric of
``BENCHMARK.json`` the report gives each side's median and quartiles,
the fraction of run pairs B wins, and a verdict:

* ``improved``: B wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than A's quartile distance;
* ``unresolved``: the run-to-run spread (quartile distance over median,
  the wider of the two sides) exceeds the metric's bound, unless every B
  run reads better than every A run;
* ``regressed``: B's median is worse than A's by more than the bound;
* ``unchanged``: otherwise.

Runs pair by seed when both sides ran the same seeds, else in file
order.  Exact counts of traced runs (``--trace 1``) with the same
workload and seed must be identical on both sides.  The exit code is 1
when any metric regressed or any count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Per-layer counts that repeat exactly for a given seed.
EXACT_COUNTS = ("epoch.phases", "sim.events", "algorithms.steps", "plan.calls", "service.hit_ratio")


def load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(a: Sequence[Tuple[int, float]], b: Sequence[Tuple[int, float]]) -> List[Tuple[float, float]]:
    """(A value, B value) pairs: by seed when the seed sets match, else in order."""
    seeds_a, seeds_b = [s for s, _ in a], [s for s, _ in b]
    if sorted(seeds_a) == sorted(seeds_b) and len(set(seeds_a)) == len(seeds_a):
        by_seed = dict(b)
        return [(va, by_seed[s]) for s, va in a]
    return [(va, vb) for (_, va), (_, vb) in zip(a, b)]


def verdict(a: Sequence[float], b: Sequence[float], paired: Sequence[Tuple[float, float]],
            better: str, bound: float) -> Dict[str, Any]:
    """The §8 comparison of one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)

    def b_better(x: float, y: float) -> bool:  # candidate x beats reference y
        return sign * (y - x) > 0

    wins = sum(b_better(vb, va) for va, vb in paired) / len(paired) if paired else 0.0
    worse = sign * (bm - am) / am  # > 0: B is worse
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    all_better = all(b_better(x, y) for x in b for y in a)
    all_worse = all(b_better(y, x) for x in b for y in a)
    if wins >= 0.9 and worse < 0 and abs(bm - am) > a3 - a1:
        result = "improved"
    elif spread > bound and not all_better:
        result = "regressed" if all_worse and worse > bound else "unresolved"
    elif worse > bound:
        result = "regressed"
    else:
        result = "unchanged"
    return {
        "a": {"median": am, "q1": a1, "q3": a3, "n": len(a)},
        "b": {"median": bm, "q1": b1, "q3": b3, "n": len(b)},
        "b_wins": wins, "worse": worse, "spread": spread, "verdict": result,
    }


def compare(runs_a: Sequence[Dict[str, Any]], runs_b: Sequence[Dict[str, Any]],
            spec: Dict[str, Any]) -> Dict[str, Any]:
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        side_a = [r for r in runs_a if r["workload"] == workload and not r["trace"]]
        side_b = [r for r in runs_b if r["workload"] == workload and not r["trace"]]
        if not side_a or not side_b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [(r["seed"], r["metrics"][name]["value"]) for r in side_a]
            b = [(r["seed"], r["metrics"][name]["value"]) for r in side_b]
            row = verdict([v for _, v in a], [v for _, v in b], pairs(a, b),
                          metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "bound": metric["bound"], **row})

    counts = []
    traced_b = {(r["workload"], r["seed"]): r for r in runs_b if r["trace"]}
    for ra in runs_a:
        rb = traced_b.get((ra["workload"], ra["seed"])) if ra["trace"] else None
        if rb is None:
            continue
        for name in EXACT_COUNTS:
            va, vb = ra["metrics"][name]["value"], rb["metrics"][name]["value"]
            counts.append({"workload": ra["workload"], "seed": ra["seed"], "metric": name,
                           "a": va, "b": vb, "identical": va == vb})
    return {"rows": rows, "counts": counts}


def report(result: Dict[str, Any]) -> None:
    for row in result["rows"]:
        a, b = row["a"], row["b"]
        print(f"{row['workload']:<18} {row['metric']:<12} "
              f"A {a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}] (n={a['n']})  "
              f"B {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] (n={b['n']}) {row['unit']}  "
              f"B wins {row['b_wins']:.0%}  spread {row['spread']:.1%} "
              f"(bound {row['bound']:.0%})  {row['verdict']}")
    if result["counts"]:
        different = [c for c in result["counts"] if not c["identical"]]
        print(f"exact counts: {len(result['counts']) - len(different)} of "
              f"{len(result['counts'])} identical")
        for c in different:
            print(f"  DIFFERENT {c['workload']} seed={c['seed']} {c['metric']}: "
                  f"{c['a']} vs {c['b']}")
    else:
        print("exact counts: no traced runs with the same workload and seed on both sides")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of layered-benchmark runs")
    parser.add_argument("a", help="reference runs (JSON lines)")
    parser.add_argument("b", help="candidate runs (JSON lines)")
    parser.add_argument("--json", metavar="OUT", help="also write the comparison as JSON")
    args = parser.parse_args(argv)

    with open(SPEC) as fh:
        spec = json.load(fh)
    result = compare(load_runs(args.a), load_runs(args.b), spec)
    report(result)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    bad = any(r["verdict"] == "regressed" for r in result["rows"]) or any(
        not c["identical"] for c in result["counts"]
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
