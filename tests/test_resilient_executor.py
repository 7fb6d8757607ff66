"""Tests for the resilient parallel_map engine (policy-driven path).

Contracts (see docs/ROBUSTNESS.md): crash isolation, bounded retries
with backoff, per-task timeouts, checkpoint resume from the result
store that is byte-identical, jobs-count invariance, and graceful
degradation of aggregation when points fail permanently.
"""

import json
import math
import os
import pickle

import pytest

from repro import faults, store
from repro.experiments import executor
from repro.experiments.base import drop_failed, mean_std_robust
from repro.experiments.executor import (
    ExecutionPolicy,
    FailedPoint,
    FailureRecord,
    is_failed,
    parallel_map,
)
from repro.experiments.sweeps import _sweep_point_task
from repro.faults.plan import FaultPlan
from repro.machine.config import MachineConfig


@pytest.fixture(autouse=True)
def _clean_policy():
    executor.clear_policy()
    executor.drain_failures()
    store.clear_store()
    yield
    executor.clear_policy()
    executor.drain_failures()
    store.clear_store()


def _square(x):
    return x * x


def _logged_square(task):
    """Appends its value to the log named in the task (O_APPEND lines
    survive worker processes), so tests can count executions."""
    x, log = task
    with open(log, "a") as fh:
        fh.write(f"{x}\n")
    return x * x


def _logged_poisoned(task):
    """:func:`_logged_square` that fails on point 2, after logging it."""
    out = _logged_square(task)
    if task[0] == 2:
        raise ValueError(f"poisoned point {task[0]}")
    return out


def _executed(log) -> list:
    if not os.path.exists(log):
        return []
    with open(log) as fh:
        return sorted(int(line) for line in fh)


def _racy_point(seed):
    """One tiny run that trips a QS002 warning naming its own cell."""
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


def _checkpoint(directory) -> None:
    """What ``--checkpoint DIR`` installs: the result store at DIR and
    the resilient engine."""
    store.set_store(directory)
    executor.set_policy(ExecutionPolicy(max_retries=0, backoff_seconds=0.01))


def _crash_once(task):
    """Dies hard on the first attempt for marked tasks (marker file on
    disk survives the worker's death; the retry then succeeds)."""
    value, marker = task
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(23)
    return value + 100


def _always_raise(x):
    if x == 2:
        raise ValueError(f"poisoned point {x}")
    return x


def _hang_forever(x):
    if x == 1:
        import time

        time.sleep(600)
    return x


class TestPolicyValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="task_timeout_seconds"):
            ExecutionPolicy(task_timeout_seconds=0)
        with pytest.raises(ValueError, match="max_retries"):
            ExecutionPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_factor"):
            ExecutionPolicy(backoff_factor=0.5)

    def test_backoff_schedule(self):
        pol = ExecutionPolicy(backoff_seconds=0.1, backoff_factor=2.0)
        assert pol.backoff_for(1) == pytest.approx(0.1)
        assert pol.backoff_for(3) == pytest.approx(0.4)


class TestCrashIsolation:
    def test_crash_once_recovers_via_retry(self, tmp_path):
        marker = str(tmp_path / "crash.marker")
        executor.set_policy(ExecutionPolicy(max_retries=2, backoff_seconds=0.01))
        tasks = [(i, marker if i == 3 else None) for i in range(6)]
        out = parallel_map(_crash_once, tasks, jobs=3)
        assert out == [i + 100 for i in range(6)]
        assert executor.drain_failures() == []

    def test_permanent_failure_isolated_and_recorded(self):
        executor.set_policy(ExecutionPolicy(max_retries=2, backoff_seconds=0.01))
        out = parallel_map(_always_raise, list(range(5)), jobs=2)
        assert is_failed(out[2])
        assert isinstance(out[2], FailedPoint)
        assert [v for i, v in enumerate(out) if i != 2] == [0, 1, 3, 4]

        fails = executor.drain_failures()
        assert len(fails) == 1
        record = fails[0]
        assert isinstance(record, FailureRecord)
        assert record.index == 2
        assert "ValueError" in record.error and "poisoned" in record.error
        # initial attempt + 2 retries, each with its backoff
        assert len(record.attempts) == 3
        assert record.attempts[0]["backoff_seconds"] == pytest.approx(0.01)
        assert record.attempts[1]["backoff_seconds"] == pytest.approx(0.02)
        assert executor.drain_failures() == []  # drained

    def test_timeout_kills_hung_worker(self):
        executor.set_policy(
            ExecutionPolicy(task_timeout_seconds=1.0, max_retries=0)
        )
        out = parallel_map(_hang_forever, [0, 1, 2], jobs=3)
        assert out[0] == 0 and out[2] == 2
        assert is_failed(out[1])
        fails = executor.drain_failures()
        assert "timed out" in fails[0].error


class TestCheckpointResume:
    def test_resume_is_byte_identical_and_skips_done(self, tmp_path):
        ckpt = tmp_path / "ck"
        log = str(tmp_path / "runs.log")
        tasks = [(i, log) for i in range(8)]
        _checkpoint(ckpt)
        first = parallel_map(_logged_square, tasks, jobs=2)
        assert _executed(log) == list(range(8))
        objects = sorted((ckpt / "objects").glob("*/*.bin"))
        assert len(objects) == 8

        # interrupt simulation: two points never stored, a third cut off
        # mid-write (its integrity check fails, so it is quarantined)
        objects[0].unlink()
        objects[1].unlink()
        raw = objects[2].read_bytes()
        objects[2].write_bytes(raw[: len(raw) // 2])

        os.remove(log)
        _checkpoint(ckpt)
        resumed = parallel_map(_logged_square, tasks, jobs=2)
        assert pickle.dumps(resumed) == pickle.dumps(first)
        assert first == [i * i for i in range(8)]
        assert len(_executed(log)) == 3  # only the lost points re-ran
        counts = store.counters()
        assert counts["hits"] == 5 and counts["misses"] == 3
        assert counts["quarantined"] == 1

    def test_repeated_sweeps_of_one_worker_both_resume(self, tmp_path):
        ckpt = tmp_path / "ck"
        log = str(tmp_path / "runs.log")
        _checkpoint(ckpt)
        parallel_map(_logged_square, [(1, log), (2, log)], jobs=1)
        parallel_map(_logged_square, [(3, log), (4, log)], jobs=1)  # fig4-then-fig5 shape
        assert _executed(log) == [1, 2, 3, 4]

        _checkpoint(ckpt)
        assert parallel_map(_logged_square, [(1, log), (2, log)], jobs=1) == [1, 4]
        assert parallel_map(_logged_square, [(3, log), (4, log)], jobs=1) == [9, 16]
        assert _executed(log) == [1, 2, 3, 4]  # zero executions on resume

    def test_failed_points_rerun_on_resume(self, tmp_path):
        ckpt = tmp_path / "ck"
        log = str(tmp_path / "runs.log")
        tasks = [(i, log) for i in range(4)]
        _checkpoint(ckpt)
        first = parallel_map(_logged_poisoned, tasks, jobs=2)
        assert is_failed(first[2])
        assert len(executor.drain_failures()) == 1

        _checkpoint(ckpt)
        resumed = parallel_map(_logged_poisoned, tasks, jobs=2)
        assert is_failed(resumed[2])
        assert [v for i, v in enumerate(resumed) if i != 2] == [0, 1, 9]
        fails = executor.drain_failures()
        assert len(fails) == 1 and "poisoned" in fails[0].error
        # failed points are never stored: only the poisoned point re-ran
        assert _executed(log) == [0, 1, 2, 2, 3]

    def test_resume_restores_fault_tally_and_obs_captures(
        self, tmp_path, obs_state, sanitizer_warn, capsys
    ):
        from repro import check, obs
        from repro.obs.export import chrome_trace_events

        mc = MachineConfig(p=4)
        tasks = [(mc, 4000, seed) for seed in (1, 2, 3)]

        def sweep():
            obs.reset()
            _checkpoint(tmp_path / "ck")
            results = parallel_map(_sweep_point_task, tasks, jobs=2)
            results += parallel_map(_racy_point, [3, 4, 5], jobs=2)
            obs.state().finalize_all()
            metrics = {
                name: metric.snapshot()
                for name, metric in obs.metrics().items()
                if not name.startswith("store.")  # hit/miss counts differ
            }
            events = chrome_trace_events(obs.runs())
            diags = [d.message for d in check.drain_diagnostics()]
            return results, events, metrics, diags, faults.drain_tally()

        faults.arm("drop=0.05,seed=9")
        try:
            first = sweep()
            objects = sorted((tmp_path / "ck" / "objects").glob("*/*.bin"))
            for path in objects[::2]:
                path.unlink()
            resumed = sweep()
        finally:
            faults.disarm()
        capsys.readouterr()  # swallow the warn-mode stderr reports
        assert store.counters()["misses"] == len(objects[::2])
        assert pickle.dumps(resumed) == pickle.dumps(first)
        _, events, _, diags, tally = first
        assert events and len(diags) == 3 and tally["fault.drops"] > 0

    def test_changed_tasks_invalidate_matching(self, tmp_path):
        ckpt = tmp_path / "ck"
        _checkpoint(ckpt)
        parallel_map(_square, [1, 2, 3], jobs=1)
        _checkpoint(ckpt)
        # different task at index 1: key mismatch -> re-runs, correct value
        assert parallel_map(_square, [1, 9, 3], jobs=1) == [1, 81, 9]

    def test_resume_under_another_fault_plan_runs_that_plan(self, tmp_path, capsys):
        from repro.experiments import cli

        ckpt = str(tmp_path / "ck")

        def run(spec, checkpoint, name):
            out = tmp_path / f"{name}.json"
            argv = [
                "run", "fig2", "--fast", "--ns", "4096", "--jobs", "2",
                "--faults", spec, "--json", str(out),
            ]
            if checkpoint is not None:
                argv += ["--checkpoint", checkpoint]
            assert cli.main(argv) == 0
            return json.loads(out.read_text())["data"], capsys.readouterr().err

        light, err = run("drop=0.05,seed=3", ckpt, "light")
        assert "[cache: 0 hit(s), 3 miss(es)" in err
        heavy, err = run("drop=0.25,seed=3", ckpt, "heavy")
        assert "[cache: 0 hit(s), 3 miss(es)" in err
        fresh, _ = run("drop=0.25,seed=3", None, "fresh")
        assert heavy == fresh
        assert heavy != light
        # the checkpoint holds both plans' points; each resumes in full
        resumed, err = run("drop=0.05,seed=3", ckpt, "resumed")
        assert resumed == light
        assert "[cache: 3 hit(s), 0 miss(es)" in err


class TestSimulationInvariance:
    def test_resilient_matches_plain_and_sequential(self):
        mc = MachineConfig(p=4)
        tasks = [(mc, 4000 * (i + 1), 11 + i) for i in range(4)]
        seq = parallel_map(_sweep_point_task, tasks, jobs=1)
        executor.set_policy(ExecutionPolicy(max_retries=1))
        res = parallel_map(_sweep_point_task, tasks, jobs=3)
        executor.clear_policy()
        par = parallel_map(_sweep_point_task, tasks, jobs=3)
        assert seq == res == par

    @pytest.mark.parametrize("pinned", [False, True], ids=["armed", "machine-pinned"])
    def test_fault_tallies_jobs_invariant_under_policy(self, pinned):
        # armed: a global plan under the resilient engine; machine-pinned:
        # a plan on the machine config, no policy, nothing armed globally
        mc = MachineConfig(p=4)
        if pinned:
            mc = mc.with_faults(FaultPlan(drop_prob=0.05, seed=9))
        else:
            faults.arm("drop=0.05,seed=9")
            executor.set_policy(ExecutionPolicy(max_retries=1))
        try:
            tasks = [(mc, 4000, 1), (mc, 4000, 2)]
            r1 = parallel_map(_sweep_point_task, tasks, jobs=2)
            t1 = faults.drain_tally()
            r2 = parallel_map(_sweep_point_task, tasks, jobs=1)
            t2 = faults.drain_tally()
            assert r1 == r2
            assert t1 == t2 and t1["fault.drops"] > 0
        finally:
            faults.disarm()


class TestCliIntegration:
    def test_strict_flag_controls_exit_code(self, capsys):
        from repro.experiments import cli

        executor._FAILURES.append(
            FailureRecord(fn="f", index=3, task_repr="t", error="boom")
        )
        assert cli._resilience_teardown(strict=True) == 1
        err = capsys.readouterr().err
        assert "boom" in err and "failed" in err

        executor._FAILURES.append(
            FailureRecord(fn="f", index=3, task_repr="t", error="boom")
        )
        assert cli._resilience_teardown(strict=False) == 0
        # drained by the previous call: a clean teardown exits 0 either way
        assert cli._resilience_teardown(strict=True) == 0

    def test_parser_accepts_resilience_flags(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(
            [
                "run", "fig2", "--fast", "--faults", "drop=0.05",
                "--checkpoint", "/tmp/x", "--retries", "1",
                "--task-timeout", "5", "--strict",
            ]
        )
        assert args.faults == "drop=0.05"
        assert args.checkpoint == "/tmp/x"
        assert args.retries == 1
        assert args.task_timeout == 5.0
        assert args.strict

    def test_cache_and_checkpoint_must_name_one_directory(self, tmp_path, capsys):
        from repro.experiments import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "run", "table1", "--cache", str(tmp_path / "a"),
                    "--checkpoint", str(tmp_path / "b"),
                ]
            )
        assert exc.value.code == 2
        assert "different directories" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

        same = tmp_path / "s"
        argv = ["run", "table1", "--cache", str(same), "--checkpoint", f"{same}/"]
        assert cli.main(argv) == 0
        assert (same / "meta.json").exists()
        assert "[cache: " in capsys.readouterr().err


class TestDegradationHelpers:
    def test_drop_failed_and_robust_mean(self):
        bad = FailedPoint(
            FailureRecord(fn="f", index=0, task_repr="t", error="boom")
        )
        assert drop_failed([1.0, bad, 3.0]) == [1.0, 3.0]
        mean, std = mean_std_robust([2.0, bad, 4.0])
        assert mean == pytest.approx(3.0)
        all_failed = mean_std_robust([bad])
        assert math.isnan(all_failed[0]) and math.isnan(all_failed[1])
