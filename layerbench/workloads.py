"""One workload, one run: the child process of the layered benchmark.

``bench_layers.py`` starts this module in a fresh interpreter for each
workload, with every ``QSM_*`` variable cleared so the default code path
is what gets measured, and reads the JSON object on the last line of its
standard output.

A run measures set-up (several fresh launches, median), does one
untimed warm-up unit, then times units until ``--seconds`` have passed
(at least ``--min-units``).  Unit seeds come from ``--seed`` alone
(:func:`unit_seed`); the program only ever receives the generated
inputs.  The warm-up unit is always unit 0 of seed 0, so every run
checks one unit against the committed golden digests; at ``--seed 0``
every timed unit is checked too.  After the window the first timed unit
is re-run and must reproduce its digest.

Every timing is reported in scaled seconds (:func:`scaled`): the wall
time divided by the mean wall time of the reference loop
(:func:`reference_s`) timed just before and just after it, times
:data:`REFERENCE_S`.  On a shared host the speed of a core drifts by
tens of percent within a minute, and CPU time drifts with it; the ratio
cancels that drift, because the loop runs at nearly the same moment.

With ``--trace 1`` the run instead reports per-layer metrics: a short
untraced segment, then the same unit seeds again with the
``layer_spans`` wrappers installed, and a Chrome trace written under
``--trace-dir``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens" / "bench_layers.json"

#: Units per run never reach this, so unit seeds of different ``--seed``
#: values never meet, and service request seeds stay distinct modulo the
#: experiments' 1000-per-repetition seed stride (no shared cache points).
MAX_UNITS = 1000

#: Traced units whose exact counts are reported (counts of later units
#: would depend on how many fit in the window).
COUNT_UNITS = 5

#: Iterations of the reference loop: 70–120 ms on a shared 2.1 GHz Xeon
#: core, depending on the host's load.  Half as many leave more of the
#: loop's own noise in each unit's time (spread of run medians ~8%
#: instead of ~6.5%).
REFERENCE_ITERATIONS = 600_000

#: The reference loop's time that scaled seconds assume: about its time
#: on a lightly loaded core of the 2-vCPU baseline VM, so scaled seconds
#: read close to that VM's wall seconds.
REFERENCE_S = 0.08


def reference_s() -> float:
    """Wall seconds of a fixed piece of pure-Python work (integer
    arithmetic and dict stores).  It is the benchmark's own code, so no
    change to the program moves it; only the host's speed does."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - t0


def scaled(wall: float, ref_before: float, ref_after: float) -> float:
    """*wall* seconds as they would read on a core that runs the
    reference loop in :data:`REFERENCE_S`."""
    return wall * REFERENCE_S / ((ref_before + ref_after) / 2.0)


def scaled_launches(launch: Callable[[int], float], n: int) -> List[float]:
    """Scaled seconds of *n* calls ``launch(k)``, each returning wall
    seconds, with the reference loop timed before the first and after
    each."""
    out = []
    ref = reference_s()
    for k in range(n):
        wall = launch(k)
        after = reference_s()
        out.append(scaled(wall, ref, after))
        ref = after
    return out


def unit_seed(seed: int, u: int) -> int:
    """Seed of unit *u* in a run with workload seed *seed*."""
    if not 0 <= u < MAX_UNITS:
        raise ValueError(f"unit index {u} outside [0, {MAX_UNITS})")
    return seed * 100_000 + u


def digest(obj: Any) -> str:
    """sha256 of the canonical JSON of *obj*."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(n: int, beyond: int = 10) -> Optional[float]:
    """The highest of p99/p95/p90/p75 with at least *beyond* of *n*
    samples above it, or None (then only the median is reportable)."""
    for q in (99.0, 95.0, 90.0, 75.0):
        if n - math.ceil(n * q / 100.0) >= beyond:
            return q
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100.0) - 1)]


def describe(label: str, values: Sequence[float], unit: str = "s") -> str:
    """``label p50 X [pQ Y] (n=N)`` for the human-readable report."""
    if not values:
        return f"  {label:<22} (no samples)"
    text = f"  {label:<22} p50 {median(values):.4f} {unit}"
    q = tail_percentile(len(values))
    if q is not None:
        text += f"  p{q:g} {percentile(values, q):.4f} {unit}"
    return text + f"  (n={len(values)})"


class Checks:
    """Collects output-check failures; the run is correct when none."""

    def __init__(self) -> None:
        self.errors: List[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return ok


def load_goldens(name: str) -> List[str]:
    with open(GOLDENS) as fh:
        return json.load(fh)["workloads"].get(name, [])


def peak_rss_mb(children_only: bool = False) -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children_only:
        return kids / 1024.0
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, kids) / 1024.0


def live_obs_objects() -> int:
    """Observability records alive in this process.  The default path
    must allocate none: a non-zero count means an instrumentation site
    lost its ``sim.obs is not None`` guard."""
    from repro.obs.spans import Observer, RunCapture, Span

    kinds = (Span, RunCapture, Observer)
    return sum(isinstance(o, kinds) for o in gc.get_objects())


def import_times(module: str) -> Dict[str, float]:
    """Self import seconds per package, from ``python -X importtime``
    in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    totals = {"repro": 0.0, "numpy": 0.0, "scipy": 0.0, "total": 0.0}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:
            continue  # the header line
        top = parts[2].strip().split(".")[0]
        totals["total"] += self_us / 1e6
        if top in totals:
            totals[top] += self_us / 1e6
    return totals


def launch_until_ready(module: str) -> float:
    """Seconds from spawning a fresh interpreter until *module* is
    imported in it."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", f"import {module}; print('ready', flush=True)"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"import of {module} failed (exit {proc.returncode})")
    return elapsed


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Batch:
    """A unit is one round of *experiments* (``fast=True``) at one seed."""

    experiments: Tuple[str, ...]
    jobs: int
    #: Runs programs on the qsmlib sync engine (epoch share must be 1).
    qsmlib: bool

    def run_unit(self, seed: int) -> Tuple[float, str, int]:
        """Returns (wall seconds, digest of the results' data, failed points)."""
        from repro.experiments import executor, registry

        t0 = time.perf_counter()
        results = [
            registry.run_experiment(exp, fast=True, seed=seed, jobs=self.jobs)
            for exp in self.experiments
        ]
        wall = time.perf_counter() - t0
        failed = len(executor.drain_failures())
        return wall, digest([r.to_json_dict()["data"] for r in results]), failed


# Every workload runs its units one at a time from one process
# (``jobs=1``, one closed-loop service client): more processes than the
# host's cores would time the host's scheduler rather than the program.
WORKLOADS: Dict[str, Any] = {
    "listrank-phases": Batch(("fig3",), jobs=1, qsmlib=True),
    "samplesort-sweeps": Batch(("fig2", "fig4", "fig8", "table4"), jobs=1, qsmlib=True),
    "membank-des": Batch(("fig7",), jobs=1, qsmlib=False),
    "service-mix": None,  # see run_service
}


@dataclass
class UnitRecord:
    u: int
    #: None when the unit failed (then it is left out of the timings).
    wall: Optional[float]
    digest: Optional[str]
    #: ``wall`` in scaled seconds.
    scaled_s: Optional[float] = None


def run_units(
    run_one: Callable[[int], UnitRecord],
    seconds: float,
    min_units: int,
) -> Tuple[List[UnitRecord], List[float]]:
    """Units 1, 2, ... until *seconds* have passed and at least
    *min_units* ran, with the reference loop timed before the first unit
    and after each; returns the records and the reference times."""
    units: List[UnitRecord] = []
    refs = [reference_s()]
    start = time.perf_counter()
    u = 1
    while (len(units) < min_units or time.perf_counter() - start < seconds) and u < MAX_UNITS:
        record = run_one(u)
        refs.append(reference_s())
        if record.wall is not None:
            record.scaled_s = scaled(record.wall, refs[-2], refs[-1])
        units.append(record)
        u += 1
    return units, refs


def batch_unit_runner(wl: Batch, seed: int, goldens: Sequence[str], checks: Checks):
    def run_one(u: int) -> UnitRecord:
        try:
            wall, dig, failed = wl.run_unit(unit_seed(seed, u))
        except Exception as exc:  # a raising unit is a failed operation
            checks.expect(False, f"unit {u} raised {type(exc).__name__}: {exc}")
            return UnitRecord(u, None, None)
        ok = checks.expect(failed == 0, f"unit {u}: {failed} failed sweep points")
        if seed == 0 and u < len(goldens):
            ok &= checks.expect(dig == goldens[u], f"unit {u}: digest differs from golden")
        return UnitRecord(u, wall if ok else None, dig)

    return run_one


def check_default_path(checks: Checks) -> None:
    leaked = live_obs_objects()
    checks.expect(leaked == 0, f"untraced pass left {leaked} observability objects alive")


def ok_walls(units: Sequence[UnitRecord]) -> List[float]:
    return [r.wall for r in units if r.wall is not None]


def ok_scaled(units: Sequence[UnitRecord]) -> List[float]:
    return [r.scaled_s for r in units if r.scaled_s is not None]


def describe_window(units: Sequence[UnitRecord], refs: Sequence[float], out) -> None:
    out(describe("unit wall_s", ok_walls(units)))
    out(describe("reference wall_s", refs))
    out(describe("unit scaled_s", ok_scaled(units)))
    out(f"  {len(ok_scaled(units))} of {len(units)} units ok")


def run_batch(name: str, args, out: Callable[[str], None]) -> Dict[str, Any]:
    wl: Batch = WORKLOADS[name]
    goldens = load_goldens(name)
    checks = Checks()
    entry = "repro.experiments.registry"
    # Importing here first leaves every launch below with compiled
    # bytecode, as a user's second run has.
    importlib.import_module(entry)
    if args.trace:
        imports = [import_times(entry) for _ in range(args.setup_launches)]
    else:
        setup = scaled_launches(lambda _: launch_until_ready(entry), args.setup_launches)
        out("  setup launches " + " ".join(f"{s:.3f}" for s in setup) + " scaled s")

    run_one = batch_unit_runner(wl, args.seed, goldens, checks)
    # The untimed warm-up: unit 0 of seed 0, checked against its golden
    # digest on every run.
    checks.expect(bool(goldens), f"no golden digests for {name}")
    batch_unit_runner(wl, 0, goldens, checks)(0)

    if args.trace:
        metrics, attempted, failed = batch_traced_pass(name, wl, run_one, args, checks, out)
        metrics.update({f"import.{k}_s": median([t[k] for t in imports]) for k in imports[0]})
        return result(checks, attempted, failed, metrics)

    units, refs = run_units(run_one, args.seconds, args.min_units)
    check_default_path(checks)
    checks.expect(run_one(1).digest == units[0].digest, "re-run of unit 1 changed its output")
    describe_window(units, refs, out)
    timed = ok_scaled(units)
    metrics = {
        "setup_s": median(setup),
        "unit_s_p50": median(timed),
        "peak_rss_mb": peak_rss_mb(),
    }
    return result(checks, len(units), len(units) - len(timed), metrics)


def batch_traced_pass(name, wl: Batch, run_one, args, checks: Checks, out):
    """A third of the window untraced, the rest traced on the same unit
    seeds; returns (per-layer metrics, units attempted, units failed)."""
    import layer_spans

    untraced, _ = run_units(run_one, args.seconds / 3.0, args.min_units)
    check_default_path(checks)
    rec = layer_spans.Recorder()
    kept_spans: List[list] = []
    kept_units: List[int] = []
    profiles: List[Tuple[float, Dict[str, Dict[str, float]]]] = []

    def traced_one(u: int) -> UnitRecord:
        mark = len(rec.spans)
        record = run_one(u)
        spans = rec.detach(mark)
        if record.wall is not None:
            profiles.append((record.wall, layer_spans.unit_profile(spans)))
        if len(profiles) <= args.count_units:
            kept_spans.extend(spans)
            kept_units.extend([u] * len(spans))
        return record

    uninstall = layer_spans.install(rec)
    try:
        traced, _ = run_units(
            traced_one, args.seconds * 2.0 / 3.0, max(args.min_units, args.count_units)
        )
    finally:
        uninstall()
    by_u = {r.u: r.digest for r in untraced}
    for r in traced:
        if r.u in by_u:
            checks.expect(r.digest == by_u[r.u], f"tracing changed the output of unit {r.u}")
    write_trace(args.trace_dir, name, layer_spans.chrome_trace(kept_spans, kept_units))

    metrics = batch_layer_metrics(profiles, args.count_units)
    base = median(ok_scaled(untraced))
    metrics["trace.overhead"] = median(ok_scaled(traced)) / base if base else 0.0
    if wl.qsmlib:
        checks.expect(
            metrics["epoch.share"] == 1.0,
            f"epoch share {metrics['epoch.share']} != 1.0: phases left the epoch path",
        )
    checks.expect(
        abs(metrics["trace.coverage"] - 1.0) <= 0.05,
        f"layer self times cover {metrics['trace.coverage']:.3f} of the unit wall time",
    )
    out(describe("traced unit scaled_s", ok_scaled(traced)))
    out(describe("untraced unit scaled_s", ok_scaled(untraced)))
    units = untraced + traced
    return metrics, len(units), len(units) - len(ok_walls(units))


def batch_layer_metrics(profiles, count_units: int) -> Dict[str, float]:
    """Per-layer metrics: self times are per-unit medians over every
    traced unit; counts are per-unit medians over the first
    *count_units* traced units, so they repeat exactly for a seed."""

    def self_s(key: str) -> float:
        return median([p.get(key, {}).get("self_s", 0.0) for _, p in profiles])

    def count(key: str, field: str = "calls") -> float:
        return median([p.get(key, {}).get(field, 0) for _, p in profiles[:count_units]])

    def per_item_us(layer_key: str, item_key: str, field: str) -> float:
        ratios = [
            p[layer_key]["self_s"] / p[item_key][field] * 1e6
            for _, p in profiles
            if p.get(item_key, {}).get(field)
        ]
        return median(ratios)

    phases = sum(p.get("epoch.phase", {}).get("calls", 0) for _, p in profiles)
    syncs = sum(p.get("qsmlib.sync", {}).get("calls", 0) for _, p in profiles)
    coverage = median([
        sum(v["self_s"] for k, v in p.items() if k.startswith("layer:")) / wall
        for wall, p in profiles
    ])
    return {
        "experiments.self_s": self_s("layer:experiments"),
        "executor.self_s": self_s("layer:executor"),
        "executor.tasks": count("executor.map", "arg"),
        "predict.self_s": self_s("layer:predict"),
        "predict.calls": count("predict.point"),
        "algorithms.self_s": self_s("layer:algorithms"),
        "algorithms.steps": count("algorithms.step"),
        "qsmlib.self_s": self_s("layer:qsmlib"),
        "qsmlib.runs": count("qsmlib.run"),
        "plan.build_traffic_s": self_s("plan.build_traffic"),
        "plan.apply_s": self_s("plan.apply"),
        "plan.calls": count("plan.build_traffic") + count("plan.apply"),
        "epoch.self_s": self_s("layer:epoch"),
        "epoch.phases": count("epoch.phase"),
        "epoch.us_per_phase": per_item_us("layer:epoch", "epoch.phase", "calls"),
        "epoch.share": phases / syncs if syncs else 0.0,
        "sim.self_s": self_s("layer:sim"),
        "sim.events": count("sim.run", "arg"),
        "sim.us_per_event": per_item_us("layer:sim", "sim.run", "arg"),
        "membank.self_s": self_s("layer:membank"),
        "membank.calls": count("membank.run"),
        "trace.coverage": coverage,
    }


def write_trace(trace_dir: str, name: str, trace: Dict[str, Any]) -> None:
    path = Path(trace_dir)
    path.mkdir(parents=True, exist_ok=True)
    with open(path / f"{name}.trace.json", "w") as fh:
        json.dump(trace, fh)


def result(checks: Checks, attempted: int, failed: int, metrics: Dict[str, float]) -> Dict[str, Any]:
    for message in checks.errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    return {
        "correct": not checks.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# The service workload
# ----------------------------------------------------------------------
SERVICE_EXPERIMENTS = ("fig1", "fig2")


def plan_session(seed: int, u: int, history: Sequence[int]) -> Tuple[int, int]:
    """Seeds of session *u*: the new seed its two fresh requests use, and
    the earlier seed (one of *history*, the sessions so far including
    *u*) its two repeated requests fetch again."""
    novel = unit_seed(seed, u)
    repeat_u = random.Random(novel).choice(list(history))
    return novel, unit_seed(seed, repeat_u)


class Server:
    """A ``serve --jobs 1`` subprocess on a fresh cache directory."""

    def __init__(self, cache_dir: Path) -> None:
        self.cache_dir = cache_dir
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.ready_s = 0.0

    def __enter__(self) -> "Server":
        from repro.service import client

        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve",
             "--cache", str(self.cache_dir), "--port", "0", "--jobs", "1"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            self.host, port = json.loads(line)["serving"].rsplit(":", 1)
            self.port = int(port)
            if not client.wait_ready(self.host, self.port, timeout=60.0):
                raise RuntimeError("service never answered ping")
        except BaseException:
            self._stop()
            raise
        self.ready_s = time.perf_counter() - t0
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _stop(self) -> None:
        from repro.service import client

        if self.proc is None:
            return
        if self.port:
            try:
                client.shutdown(self.host, self.port)
            except (OSError, client.ServiceError):
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Request:
    exp: str
    seed: int
    repeat: bool
    send: int = 0
    accepted: Optional[int] = None
    first_point: Optional[int] = None
    done: Optional[int] = None
    statuses: Tuple[str, ...] = ()
    payload: Optional[str] = None
    cache: Optional[Dict[str, int]] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.done is not None and self.payload is not None

    @staticmethod
    def seconds(start_ns: int, end_ns: int) -> float:
        return (end_ns - start_ns) / 1e9


def submit(host: str, port: int, req: Request) -> Request:
    from repro.service import ServiceError, SweepRequest, client

    statuses: List[str] = []
    req.send = time.perf_counter_ns()
    try:
        for msg in client.submit(SweepRequest(experiment=req.exp, fast=True, seed=req.seed), host, port):
            now = time.perf_counter_ns()
            event = msg.get("event")
            if event == "accepted":
                req.accepted = now
            elif event == "point":
                if req.first_point is None:
                    req.first_point = now
                statuses.append(msg.get("status"))
            elif event == "result":
                req.payload = json.dumps(msg["payload"], sort_keys=True, separators=(",", ":"))
                req.cache = msg.get("cache", {})
            elif event == "done":
                req.done = now
    except (OSError, ServiceError) as exc:
        req.error = f"{type(exc).__name__}: {exc}"
    req.statuses = tuple(statuses)
    return req


@dataclass
class Session:
    u: int
    requests: List[Request]
    wall: float
    novel_digest: Optional[str]


def run_session(host, port, seed, u, history, answers, checks, goldens) -> Session:
    """One closed-loop unit: fig1 and fig2 at a new seed, then fig1 and
    fig2 at the seed of an earlier session, which must all be cache hits
    and byte-equal to their first answers."""
    history.append(u)
    novel, repeat = plan_session(seed, u, history)
    t0 = time.perf_counter()
    reqs = [submit(host, port, Request(exp, novel, False)) for exp in SERVICE_EXPERIMENTS]
    reqs += [submit(host, port, Request(exp, repeat, True)) for exp in SERVICE_EXPERIMENTS]
    wall = time.perf_counter() - t0

    for r in reqs:
        checks.expect(r.ok, f"session {u}: {r.exp} seed {r.seed} failed: {r.error}")
    novel_digest = None
    if all(r.ok for r in reqs[:2]):
        for r in reqs[:2]:
            answers[(r.exp, r.seed)] = r.payload
        novel_digest = digest([json.loads(r.payload)["data"] for r in reqs[:2]])
        if seed == 0 and u < len(goldens):
            if not checks.expect(novel_digest == goldens[u], f"session {u}: digest differs from golden"):
                reqs[0].error = "golden mismatch"
    for r in reqs[2:]:
        if not r.ok:
            continue
        same = answers.get((r.exp, r.seed)) == r.payload
        hits = bool(r.statuses) and all(s == "hit" for s in r.statuses)
        if not checks.expect(same and hits, f"session {u}: repeat {r.exp} seed {r.seed} "
                             f"{'not all hits' if same else 'differs from its first answer'}"):
            r.error = "repeat mismatch"
    return Session(u, reqs, wall, novel_digest)


def run_client(host, port, seed, seconds, min_units, checks, goldens):
    """One closed-loop client running sessions 1, 2, ... through
    :func:`run_units`; returns the sessions, their unit records and the
    reference times."""
    sessions: List[Session] = []
    history: List[int] = []
    answers: Dict[Tuple[str, int], str] = {}

    def run_one(u: int) -> UnitRecord:
        session = run_session(host, port, seed, u, history, answers, checks, goldens)
        sessions.append(session)
        ok = all(r.ok for r in session.requests)
        return UnitRecord(u, session.wall if ok else None, session.novel_digest)

    units, refs = run_units(run_one, seconds, min_units)
    return sessions, units, refs


def run_service(name: str, args, out: Callable[[str], None]) -> Dict[str, Any]:
    from repro.service import client

    goldens = load_goldens(name)
    checks = Checks()
    importlib.import_module("repro.experiments.cli")  # compiled bytecode for the launches
    scratch = ROOT / ".layerbench" / "tmp" / f"service-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        if args.trace:
            imports = [import_times("repro.experiments.cli") for _ in range(args.setup_launches)]
        else:
            def launch(k: int) -> float:
                with Server(scratch / f"setup-{k}") as server:
                    return server.ready_s

            setup = scaled_launches(launch, args.setup_launches)
            out("  setup launches " + " ".join(f"{s:.3f}" for s in setup) + " scaled s")
        with Server(scratch / "main") as server:
            # The untimed warm-up: session 0 of seed 0, checked against
            # its golden digest on every run.
            checks.expect(bool(goldens), f"no golden digests for {name}")
            run_session(server.host, server.port, 0, 0, [], {}, checks, goldens)
            sessions, units, refs = run_client(
                server.host, server.port, args.seed, args.seconds, args.min_units, checks, goldens
            )
            stats = client.stats(server.host, server.port)
        rss = peak_rss_mb(children_only=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # The service must answer what a batch run computes.
    from repro.experiments import registry

    first = sessions[0]
    local = digest([
        registry.run_experiment(exp, fast=True, seed=first.requests[0].seed).to_json_dict()["data"]
        for exp in SERVICE_EXPERIMENTS
    ])
    checks.expect(local == first.novel_digest, "service answer differs from a batch run")

    requests = [r for s in sessions for r in s.requests]
    ok = [r for r in requests if r.ok]
    first_point = [r.seconds(r.send, r.first_point) for r in ok if r.first_point]
    # fig2 requests only: fresh fig1 sweeps take a third as long, so the
    # median of both would sit between two modes.
    warm_done = [r.seconds(r.send, r.done) for r in ok if r.repeat and r.exp == "fig2"]
    cold_done = [r.seconds(r.send, r.done) for r in ok if not r.repeat and r.exp == "fig2"]
    describe_window(units, refs, out)
    out(describe("first_point_s", first_point))
    out(describe("fig2 warm_done_s", warm_done))
    out(describe("fig2 cold_done_s", cold_done))
    out(f"  {len(ok)} of {len(requests)} requests ok")
    failed = len(requests) - len(ok)

    if not args.trace:
        metrics = {
            "setup_s": median(setup),
            "unit_s_p50": median(ok_scaled(units)),
            "peak_rss_mb": rss,
        }
        return result(checks, len(requests), failed, metrics)

    hits = sum(r.cache.get("hits", 0) for r in ok)
    misses = sum(r.cache.get("misses", 0) for r in ok)
    metrics = {f"import.{k}_s": median([t[k] for t in imports]) for k in imports[0]}
    metrics.update({
        "service.admit_s_p50": median([r.seconds(r.send, r.accepted) for r in ok if r.accepted]),
        "service.start_s_p50": median([
            r.seconds(r.accepted, r.first_point) for r in ok if r.accepted and r.first_point
        ]),
        "service.first_point_s_p50": median(first_point),
        "service.warm_done_s_p50": median(warm_done),
        "service.cold_done_s_p50": median(cold_done),
        "service.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.errors": len(requests) - len(ok),
        "store.objects": stats["store"]["objects"],
        "store.bytes": stats["store"]["total_bytes"],
        # Both passes record the same client-side timestamps, so the
        # traced pass is the untraced pass.
        "trace.overhead": 1.0,
    })
    write_trace(args.trace_dir, name, service_trace(sessions))
    return result(checks, len(requests), failed, metrics)


def service_trace(sessions: Sequence[Session]) -> Dict[str, Any]:
    """Client-side request spans as a Chrome trace."""
    import layer_spans

    spans: List[list] = []
    units: List[int] = []
    for s in sessions:
        for r in s.requests:
            if not r.ok:
                continue
            cut = [r.send, r.accepted or r.send, r.first_point or r.done, r.done]
            kind = "repeat" if r.repeat else "novel"
            spans.append([f"service.{r.exp}.{kind}", r.send, r.done, -1, 0, 0])
            for label, a, b in zip(("admit", "start", "stream"), cut, cut[1:]):
                spans.append([f"service.{label}", a, b, -1, 0, 0])
            units.extend([s.u] * 4)
    return layer_spans.chrome_trace(spans, units)


# ----------------------------------------------------------------------
# Goldens and entry point
# ----------------------------------------------------------------------
#: Seed-0 units with golden digests: more than a run at ``--seed 0``
#: completes, so every unit of such a run is checked.
GOLDEN_BATCH_UNITS = 48
GOLDEN_SERVICE_UNITS = 240


def golden_digests(name: str) -> List[str]:
    """Digests of the first seed-0 units (for the goldens file).
    Service sessions are computed by batch runs: the service must
    answer exactly what a batch run computes."""
    if WORKLOADS[name] is not None:
        return [WORKLOADS[name].run_unit(unit_seed(0, u))[1] for u in range(GOLDEN_BATCH_UNITS)]
    from repro.experiments import registry

    return [
        digest([
            registry.run_experiment(exp, fast=True, seed=unit_seed(0, u)).to_json_dict()["data"]
            for exp in SERVICE_EXPERIMENTS
        ])
        for u in range(GOLDEN_SERVICE_UNITS)
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="one layered-benchmark workload run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-units", type=int, default=3)
    parser.add_argument("--count-units", type=int, default=COUNT_UNITS)
    parser.add_argument("--setup-launches", type=int, default=3)
    parser.add_argument("--trace-dir", default=str(ROOT / ".layerbench" / "traces"))
    parser.add_argument("--write-goldens", action="store_true",
                        help="print the golden digests of seed-0 units instead of running")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.write_goldens:
        print(json.dumps({"digests": golden_digests(args.workload)}))
        return 0

    def out(line: str) -> None:
        print(line, flush=True)

    runner = run_service if WORKLOADS[args.workload] is None else run_batch
    record = runner(args.workload, args, out)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
