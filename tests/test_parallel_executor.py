"""Tests for the multiprocessing sweep executor and the --jobs flag.

The contract: the job count changes wall-clock time only.  Results,
their order, and every derived aggregate must be byte-identical between
``jobs=1`` (pure in-process fallback) and any ``jobs>1`` pool.
"""

from __future__ import annotations

import dataclasses
import json
import operator

import numpy as np
import pytest

from repro.experiments.executor import effective_jobs, parallel_map
from repro.machine.config import MachineConfig


def test_effective_jobs_normalisation():
    assert effective_jobs(None) == 1
    assert effective_jobs(1) == 1
    assert effective_jobs(3) == 3
    assert effective_jobs(0) >= 1  # one per CPU
    assert effective_jobs(-1) == effective_jobs(0)


def test_parallel_map_sequential_fallback():
    # jobs=1 must not touch multiprocessing at all: an unpicklable
    # closure works fine.
    acc = []

    def fn(x):
        acc.append(x)
        return x * 2

    assert parallel_map(fn, [1, 2, 3], jobs=1) == [2, 4, 6]
    assert acc == [1, 2, 3]  # in order, in-process


def test_parallel_map_single_task_stays_inline():
    assert parallel_map(lambda x: x + 1, [41], jobs=8) == [42]


def test_parallel_map_preserves_order():
    tasks = list(range(20))
    assert parallel_map(operator.neg, tasks, jobs=2) == [-t for t in tasks]


def test_parallel_map_empty():
    assert parallel_map(operator.neg, [], jobs=4) == []


def _array_task(task):
    """Worker returning a numpy-heavy payload (two 40k-element arrays)."""
    seed, n = task
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**62, size=n)
    return {"seed": seed, "values": values, "histogram": np.sort(values % 97)}


def test_pool_results_byte_identical_to_sequential():
    tasks = [(s, 40_000) for s in range(6)]
    sequential = parallel_map(_array_task, tasks, jobs=1)
    parallel = parallel_map(_array_task, tasks, jobs=4)
    assert len(parallel) == len(sequential)
    for seq, par in zip(sequential, parallel):
        assert par["seed"] == seq["seed"]
        for key in ("values", "histogram"):
            assert par[key].dtype == seq[key].dtype
            assert par[key].tobytes() == seq[key].tobytes()


def _samplesort_point(task):
    """Module-level (picklable) sweep point returning arrays + cycles."""
    from repro.algorithms.samplesort import run_sample_sort
    from repro.qsmlib.program import RunConfig

    machine, n, seed = task
    rng = np.random.default_rng(seed)
    out = run_sample_sort(
        rng.integers(0, 2**62, size=n),
        RunConfig(machine=machine, seed=seed, check_semantics=False),
    )
    return out.run.comm_cycles, out.result


def test_sweep_results_independent_of_jobs():
    """End to end: a real sample-sort sweep point grid returns identical
    RunResult-bearing payloads under jobs 1 and 4."""
    machine = MachineConfig(p=8)
    tasks = [(machine, 6000, s) for s in (1, 2, 3, 4)]

    def run(jobs):
        results = parallel_map(_samplesort_point, tasks, jobs=jobs)
        return [(comm, res.tobytes()) for comm, res in results]

    assert run(4) == run(1)


def test_sweep_identical_across_job_counts():
    from repro.experiments.sweeps import run_samplesort_sweep

    def rows(jobs):
        sweep = run_samplesort_sweep(MachineConfig(p=8), [4096, 8192], reps=2, seed=0, jobs=jobs)
        return [dataclasses.asdict(pt) for pt in sweep.points]

    assert rows(1) == rows(2)


def test_multi_machine_sweeps_identical_across_job_counts():
    from repro.experiments.sweeps import latency_sweeps

    def all_points(jobs):
        sweeps = latency_sweeps([400.0, 6400.0], [4096, 8192], reps=1, seed=0, jobs=jobs)
        return {
            l: [dataclasses.asdict(pt) for pt in sw.points] for l, sw in sorted(sweeps.items())
        }

    assert all_points(1) == all_points(2)


def _racy_point(seed):
    """Module-level (picklable) task that trips one QS002 warning."""
    from repro.qsmlib import QSMMachine, RunConfig

    qm = QSMMachine(
        RunConfig(machine=MachineConfig(p=2), seed=seed, check_semantics=False)
    )
    A = qm.allocate("merge.A", 4)

    def racy(ctx, A):
        ctx.put(A, [seed % 4], [ctx.pid + 10 * seed])
        yield ctx.sync()

    qm.run(racy, A=A)
    return seed


def test_worker_diagnostics_merge_in_task_order(sanitizer_warn, capsys):
    """Sanitizer diagnostics from --jobs N workers land in the parent,
    merged in task order — identical to a sequential run."""
    from repro import check

    tasks = [3, 4, 5, 6]

    def messages(jobs):
        assert parallel_map(_racy_point, tasks, jobs=jobs) == tasks
        diags = check.drain_diagnostics()
        assert [d.code for d in diags] == ["QS002"] * len(tasks)
        return [d.message for d in diags]

    seq = messages(1)
    par = messages(2)
    assert seq == par
    # each task's conflict names its own cell, so order is observable
    for seed, msg in zip(tasks, seq):
        assert f"cell {seed % 4}" in msg
    capsys.readouterr()  # swallow the warn-mode stderr reports


def test_registry_passes_jobs_only_when_accepted():
    from repro.experiments.registry import accepts_jobs, get_experiment, run_experiment

    assert accepts_jobs(get_experiment("fig2"))
    assert not accepts_jobs(get_experiment("table1"))
    # Both kinds run fine under a multi-job request.
    result = run_experiment("table1", jobs=2)
    assert result.exp_id == "table1"


def test_cli_jobs_flag(tmp_path):
    from repro.experiments.cli import main

    out1 = tmp_path / "j1.json"
    out2 = tmp_path / "j2.json"
    assert main(["run", "fig1", "--fast", "--jobs", "1", "--json", str(out1)]) == 0
    assert main(["run", "fig1", "--fast", "--jobs", "2", "--json", str(out2)]) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    assert d1["data"] == d2["data"]


def test_report_runner_without_jobs_keyword(tmp_path):
    """generate_report must not force `jobs` onto injected runners."""
    from repro.experiments.base import ExperimentResult
    from repro.experiments.report import generate_report

    seen = []

    def fake_runner(exp_id, fast, seed):
        seen.append(exp_id)
        return ExperimentResult(exp_id=exp_id, title="t", text="body", data={})

    out = tmp_path / "r.md"
    generate_report(str(out), experiment_ids=["fig1"], runner=fake_runner, jobs=4)
    assert seen == ["fig1"]
    assert "fig1" in out.read_text()
