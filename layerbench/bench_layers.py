"""The layered end-to-end benchmark of qsm-repro.

Run from the repository root (the harness sets ``PYTHONPATH`` for the
processes it starts)::

    python3 layerbench/bench_layers.py                       # every workload
    python3 layerbench/bench_layers.py --workload listrank-phases \\
        --seed 3 --seconds 15 --trace 0                      # one run
    python3 layerbench/bench_layers.py --trace 1             # per-layer pass
    python3 layerbench/bench_layers.py --smoke               # 2 units each
    python3 layerbench/bench_layers.py --output runs.jsonl   # append records
    python3 layerbench/bench_layers.py --write-goldens       # refresh digests

Each workload runs in its own fresh interpreter (``workloads.py``) with
every ``QSM_*`` variable cleared.  The report lists every metric by name
and unit, and the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
``BENCHMARK.json``'s ``end_to_end`` metrics with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  The exit code is non-zero when
an output check fails.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
GOLDENS = HERE / "goldens" / "bench_layers.json"

#: A whole run, set-up included, must end within 180 seconds.
RUN_LIMIT_S = 175.0

_CHILD = "import sys, workloads; sys.exit(workloads.main(sys.argv[1:]))"


def load_spec() -> Dict[str, Any]:
    with open(SPEC) as fh:
        return json.load(fh)


def child_env() -> Dict[str, str]:
    """The environment of every workload process: no ``QSM_*`` variable,
    so the default code path runs, and temporary files stay inside the
    checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QSM_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    tmp = ROOT / ".layerbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(args: Sequence[str], timeout: float) -> List[str]:
    """Run ``workloads.py`` with *args*; returns its stdout lines.

    The child gets its own process group, so a timeout also stops the
    servers and pool workers it started."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:  # timeout or interrupt: stop the whole group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"workload run exceeded {timeout:.0f} s") from None
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return stdout.splitlines()


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool,
                 trace_dir: Optional[str]) -> Dict[str, Any]:
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if smoke:
        args += ["--min-units", "2", "--count-units", "2", "--setup-launches", "1"]
    if trace_dir:
        args += ["--trace-dir", trace_dir]
    lines = run_child(args, timeout=min(RUN_LIMIT_S, seconds + 150.0))
    for line in lines[:-1]:
        print(line, flush=True)
    return json.loads(lines[-1])


def with_units(record: Dict[str, Any], metrics_spec: Sequence[Dict[str, Any]],
               trace: int) -> Dict[str, Any]:
    """The contract record: every metric of *metrics_spec*, with its unit.
    A per-layer metric of a layer the workload does not run reads 0."""
    measured = record["metrics"]
    missing = [m["name"] for m in metrics_spec if m["name"] not in measured]
    if missing and not trace:
        raise RuntimeError(f"workload did not report {', '.join(missing)}")
    return {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {
            m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
            for m in metrics_spec
        },
    }


def write_goldens(names: Sequence[str]) -> int:
    """Recompute the seed-0 unit digests into ``goldens/bench_layers.json``."""
    digests = {}
    for name in names:
        lines = run_child(["--workload", name, "--write-goldens"], timeout=1800.0)
        digests[name] = json.loads(lines[-1])["digests"]
        print(f"{name}: {len(digests[name])} golden digests", flush=True)
    GOLDENS.parent.mkdir(exist_ok=True)
    doc = {
        "about": "sha256 of the canonical JSON of each unit's result data at --seed 0; "
                 "unit u uses seed 100000 * seed + u (see workloads.unit_seed)",
        "workloads": digests,
    }
    with open(GOLDENS, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="qsm-repro layered end-to-end benchmark")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = report per-layer metrics from a traced pass")
    parser.add_argument("--trace-dir", default=None,
                        help="where --trace 1 writes Chrome traces "
                             "(default .layerbench/traces)")
    parser.add_argument("--smoke", action="store_true",
                        help="2 units per workload and one set-up launch")
    parser.add_argument("--output", metavar="F",
                        help="append each run's record as one JSON line to F")
    parser.add_argument("--write-goldens", action="store_true",
                        help="recompute goldens/bench_layers.json and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no qsm-repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_goldens:
        return write_goldens(workloads)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    seconds = 0.0 if args.smoke else (
        args.seconds if args.seconds is not None else float(spec["run_seconds"])
    )
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    names = args.workload or workloads
    records = {}
    for name in names:
        print(f"[{name}] seed={args.seed} seconds={seconds:g} trace={args.trace}", flush=True)
        try:
            record = with_units(
                run_workload(name, args.seed, seconds, args.trace, args.smoke, args.trace_dir),
                metrics_spec, args.trace,
            )
        except (RuntimeError, ValueError, IndexError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for metric, cell in record["metrics"].items():
            print(f"  {metric:<26} {cell['value']:.6g} {cell['unit']}")
        print(f"  correct={record['correct']} attempted={record['attempted']} "
              f"failed={record['failed']}", flush=True)
        records[name] = record
        if args.output:
            with open(args.output, "a") as fh:
                fh.write(json.dumps({"workload": name, "seed": args.seed, "seconds": seconds,
                                     "trace": args.trace, **record}) + "\n")

    if len(records) == 1:
        final = next(iter(records.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{name}/{metric}": cell for name, r in records.items()
                        for metric, cell in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
