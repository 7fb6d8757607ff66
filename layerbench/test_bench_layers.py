"""Tests of the layered benchmark harness.

Run from the repository root::

    python3 -m pytest layerbench/test_bench_layers.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layer_spans  # noqa: E402
import workloads  # noqa: E402

SEC = 1_000_000_000


def span(name, start, end, parent=-1, pid=1):
    return [name, start * SEC, end * SEC, parent, pid, 0]


# -- self time ----------------------------------------------------------
def test_self_time_of_nested_spans_is_duration_minus_children():
    spans = [
        span("experiments.run", 0, 100),
        span("qsmlib.run", 10, 30, parent=0),
        span("epoch.phase", 15, 20, parent=1),
        span("predict.point", 40, 50, parent=0),
    ]
    assert layer_spans.attribute(spans) == pytest.approx([70, 15, 5, 10])


def test_overlapping_cross_process_children_split_the_overlap():
    # Two pool workers (pids 2, 3) run tasks under one executor.map span.
    spans = [
        span("executor.map", 0, 100),
        span("experiments.task", 10, 60, parent=0, pid=2),
        span("experiments.task", 40, 90, parent=0, pid=3),
        span("qsmlib.run", 50, 60, parent=2, pid=3),
    ]
    charged = layer_spans.attribute(spans)
    # The map's own time is its duration minus the union [10, 90] of
    # its children; during [40, 60] two leaves share each instant.
    assert charged == pytest.approx([20, 30 + 10, 30 + 5, 5])
    assert sum(charged) == pytest.approx(100)


def test_unit_profile_groups_by_span_name_and_layer():
    spans = [span("experiments.run", 0, 10), span("plan.apply", 2, 4, parent=0),
             span("plan.build_traffic", 5, 6, parent=0)]
    spans[1][5] = 7
    profile = layer_spans.unit_profile(spans)
    assert profile["layer:plan"]["self_s"] == pytest.approx(3)
    assert profile["plan.apply"]["calls"] == 1 and profile["plan.apply"]["arg"] == 7
    assert profile["layer:experiments"]["self_s"] == pytest.approx(7)


def test_detach_and_adopt_reparent_a_batch():
    rec = layer_spans.Recorder()
    outer = rec.begin("executor.map")
    mark = len(rec.spans)
    task = rec.begin("experiments.task")
    rec.end(rec.begin("qsmlib.run"))
    rec.end(task)
    batch = rec.detach(mark)
    assert [s[layer_spans.PARENT] for s in batch] == [-1, 0]
    rec.adopt(batch, outer)
    rec.end(outer)
    assert [s[layer_spans.PARENT] for s in rec.spans] == [-1, 0, 1]


def _work(x):
    time.sleep(0.01)
    return x * x


def test_traced_task_brings_worker_spans_back(monkeypatch):
    rec = layer_spans.Recorder()
    monkeypatch.setattr(layer_spans, "_ACTIVE", rec)
    parent = rec.begin("executor.map")
    with multiprocessing.get_context("fork").Pool(2) as pool:
        outs = pool.map(layer_spans.TracedTask(_work), range(4))
    rec.end(parent)
    for out in outs:
        rec.adopt(out.spans, parent)
    assert [out.result for out in outs] == [0, 1, 4, 9]
    tasks = rec.spans[1:]
    assert len(tasks) == 4
    assert all(s[layer_spans.PARENT] == parent for s in tasks)
    assert all(s[layer_spans.PID] != os.getpid() for s in tasks)
    # One monotonic clock across processes: children sit inside the map.
    start, end = rec.spans[parent][1], rec.spans[parent][2]
    assert all(start <= s[1] <= s[2] <= end for s in tasks)
    assert sum(layer_spans.attribute(rec.spans)) == pytest.approx((end - start) / SEC)


# -- percentiles ----------------------------------------------------------
@pytest.mark.parametrize("n, expected", [(18, None), (40, 75.0), (146, 90.0),
                                         (300, 95.0), (1000, 99.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert workloads.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert workloads.percentile(values, 90.0) == 90
    assert workloads.percentile(values, 50.0) == 50


# -- scaled seconds ----------------------------------------------------------
def test_units_are_scaled_by_the_reference_around_them(monkeypatch):
    ref = workloads.REFERENCE_S
    refs = iter([ref, 3 * ref, 2 * ref, 2 * ref])
    monkeypatch.setattr(workloads, "reference_s", lambda: next(refs))
    walls = {1: 2.0, 2: None, 3: 4.0}
    units, seen = workloads.run_units(
        lambda u: workloads.UnitRecord(u, walls[u], str(u)), seconds=0.0, min_units=3
    )
    assert seen == pytest.approx([ref, 3 * ref, 2 * ref, 2 * ref])
    # Unit 1 ran while the loop took twice its nominal time; the failed
    # unit 2 has no time.
    assert [r.scaled_s for r in units] == pytest.approx([1.0, None, 2.0])
    assert workloads.ok_scaled(units) == pytest.approx([1.0, 2.0])


def test_scaled_launches_bracket_each_launch(monkeypatch):
    ref = workloads.REFERENCE_S
    refs = iter([ref, ref, 3 * ref])
    monkeypatch.setattr(workloads, "reference_s", lambda: next(refs))
    assert workloads.scaled_launches(lambda k: 1.0 + k, 2) == pytest.approx([1.0, 1.0])


# -- compare verdicts -------------------------------------------------------
def _verdict(a, b, better="lower", bound=0.1):
    paired = list(zip(a, b))
    return compare.verdict(a, b, paired, better, bound)["verdict"]


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
    assert _verdict(base, [v * 0.8 for v in base]) == "improved"
    assert _verdict(base, [v * 1.01 for v in base]) == "unchanged"
    assert _verdict(base, [v * 1.2 for v in base]) == "regressed"
    assert _verdict(base, [v * 1.2 for v in base], better="higher") == "improved"
    noisy = [0.7, 1.3, 0.8, 1.25, 0.75, 1.2, 0.9, 1.1, 0.85, 1.15]
    assert _verdict(noisy, [v * 1.05 for v in noisy]) == "unresolved"
    # A wide spread still resolves when every B run beats every A run.
    assert _verdict(noisy, [0.5] * 10) == "improved"


def test_compare_flags_count_differences():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def run(seed, phases):
        metrics = {n: {"value": 1.0, "unit": "count"} for n in compare.EXACT_COUNTS}
        metrics["epoch.phases"]["value"] = phases
        return {"workload": "listrank-phases", "seed": seed, "trace": 1, "metrics": metrics}

    result = compare.compare([run(0, 621)], [run(0, 622)], spec)
    assert [c["metric"] for c in result["counts"] if not c["identical"]] == ["epoch.phases"]


# -- inputs from the seed ---------------------------------------------------
def test_service_mix_is_a_function_of_the_seed():
    def schedule(seed):
        plans, history = [], []
        for u in range(1, 200):
            history.append(u)
            plans.append(workloads.plan_session(seed, u, history))
        return plans

    assert schedule(7) == schedule(7)
    assert schedule(7) != schedule(8)
    plans = schedule(7)
    novel = [n for n, _ in plans]
    # Repeats fetch a seed this run already computed; fresh seeds never
    # share a sweep point (run seeds step by 1000 per repetition).
    assert all(r in novel for _, r in plans)
    assert len({n % 1000 for n in novel}) == len(novel)


def test_unit_seeds_do_not_meet_across_runs():
    assert workloads.unit_seed(0, 5) == 5
    assert workloads.unit_seed(3, 0) == 300_000
    with pytest.raises(ValueError):
        workloads.unit_seed(0, workloads.MAX_UNITS)


# -- end to end -------------------------------------------------------------
def _run(args, cwd, timeout):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "layerbench" / "bench_layers.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_smoke_runs_every_workload_correctly():
    t0 = time.monotonic()
    proc = _run(["--smoke"], HERE.parent, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert time.monotonic() - t0 < 60
    final = json.loads(proc.stdout.splitlines()[-1])
    assert final["correct"] and final["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            cell = final["metrics"][f"{w['name']}/{m['name']}"]
            assert cell["unit"] == m["unit"] and cell["value"] > 0


def test_traced_smoke_stays_on_the_epoch_path(tmp_path):
    proc = _run(["--smoke", "--trace", "1", "--workload", "listrank-phases",
                 "--trace-dir", str(tmp_path)], HERE.parent, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert metrics["epoch.share"]["value"] == 1.0
    assert abs(metrics["trace.coverage"]["value"] - 1.0) <= 0.05
    assert metrics["epoch.phases"]["value"] > 0 and metrics["membank.calls"]["value"] == 0
    text = (tmp_path / "listrank-phases.trace.json").read_text()
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.obs.export import validate_chrome_trace

    assert validate_chrome_trace(text) > 0
    cats = {e["cat"] for e in json.loads(text)["traceEvents"]}
    assert cats >= {"epoch", "qsmlib", "algorithms", "plan", "predict", "experiments", "executor"}


def test_fails_without_the_program(tmp_path):
    # A directory holding only BENCHMARK.json and the benchmark's files.
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "listrank-phases", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
