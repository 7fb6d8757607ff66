"""Integration tests for the content-addressed cache in parallel_map.

Contracts (see docs/SERVICE.md): a second identical sweep executes
zero simulator points; results are byte-identical between fresh and
cached runs under any job count; failures are never cached; the
hit/miss/coalesced counters surface through repro.store and repro.obs;
key invalidation covers the version salt and the armed fault plan.
"""

import os
import pickle

import pytest

from repro import faults, obs, store
from repro.experiments import executor
from repro.experiments.executor import (
    ExecutionPolicy,
    is_failed,
    parallel_map,
)


@pytest.fixture(autouse=True)
def _clean_state():
    executor.clear_policy()
    executor.drain_failures()
    store.clear_store()
    yield
    executor.clear_policy()
    executor.drain_failures()
    store.clear_store()


@pytest.fixture
def cache(tmp_path):
    """A store installed for one test (and the execution-count file)."""
    store.set_store(tmp_path / "cas")
    return tmp_path


def _count_file() -> str:
    return os.environ["QSM_TEST_COUNT_FILE"]


def _counted_square(x):
    """O_APPEND side-effect survives process pools: one line per call."""
    with open(_count_file(), "a") as fh:
        fh.write(f"{x}\n")
    return x * x


def _executions() -> int:
    path = os.environ["QSM_TEST_COUNT_FILE"]
    if not os.path.exists(path):
        return 0
    with open(path) as fh:
        return sum(1 for _ in fh)


def _poisoned(x):
    with open(_count_file(), "a") as fh:
        fh.write(f"{x}\n")
    if x == 2:
        raise ValueError(f"poisoned point {x}")
    return x * x


@pytest.fixture
def count_file(tmp_path, monkeypatch):
    path = tmp_path / "count.txt"
    monkeypatch.setenv("QSM_TEST_COUNT_FILE", str(path))
    return path


class TestSecondRunIsFree:
    def test_zero_points_on_rerun_sequential(self, cache, count_file):
        tasks = [1, 2, 3, 4]
        first = parallel_map(_counted_square, tasks, jobs=1)
        assert first == [1, 4, 9, 16]
        assert _executions() == 4
        second = parallel_map(_counted_square, tasks, jobs=1)
        assert second == first
        assert _executions() == 4  # nothing re-ran
        counts = store.counters()
        assert counts["hits"] == 4 and counts["misses"] == 4

    def test_zero_points_on_rerun_pool(self, cache, count_file):
        tasks = list(range(6))
        first = parallel_map(_counted_square, tasks, jobs=4)
        executed = _executions()
        assert executed == 6
        second = parallel_map(_counted_square, tasks, jobs=4)
        assert second == first
        assert _executions() == executed

    def test_jobs_invariance_fresh_vs_cached(self, cache, count_file):
        tasks = list(range(5))
        fresh = parallel_map(_counted_square, tasks, jobs=1)
        cached = parallel_map(_counted_square, tasks, jobs=4)
        assert pickle.dumps(fresh) == pickle.dumps(cached)

    def test_duplicate_tasks_coalesce_in_batch(self, cache, count_file):
        out = parallel_map(_counted_square, [3, 3, 3], jobs=1)
        assert out == [9, 9, 9]
        assert _executions() == 1
        assert store.counters()["coalesced"] == 2

    def test_uninstalled_store_means_plain_execution(self, count_file):
        assert store.active_store() is None
        parallel_map(_counted_square, [1, 2], jobs=1)
        parallel_map(_counted_square, [1, 2], jobs=1)
        assert _executions() == 4  # no memoization without a store


class TestFailuresAndSideState:
    def test_failed_points_not_cached(self, cache, count_file):
        executor.set_policy(ExecutionPolicy(max_retries=0, backoff_seconds=0.0))
        out = parallel_map(_poisoned, [1, 2, 3], jobs=1)
        assert out[0] == 1 and is_failed(out[1]) and out[2] == 9
        assert len(executor.drain_failures()) == 1
        ran = _executions()
        # Good points replay from the store; the poisoned one re-runs.
        out2 = parallel_map(_poisoned, [1, 2, 3], jobs=1)
        assert out2[0] == 1 and is_failed(out2[1])
        assert _executions() == ran + 1
        assert len(executor.drain_failures()) == 1

    def test_obs_counters_and_capture_replay(self, cache, count_file, obs_state):
        tasks = [10, 11]
        parallel_map(_counted_square, tasks, jobs=1)
        parallel_map(_counted_square, tasks, jobs=1)
        registry = obs.metrics()
        assert registry.counter("store.hits").value == 2
        assert registry.counter("store.misses").value == 2

    def test_parent_side_state_not_swallowed(self, cache, count_file, obs_state):
        # Metrics recorded before the map must survive a fully-cached run.
        parallel_map(_counted_square, [5], jobs=1)
        obs.metrics().counter("parent.pre").inc(3)
        parallel_map(_counted_square, [5], jobs=1)
        assert obs.metrics().counter("parent.pre").value == 3


class TestInvalidation:
    def test_version_salt_busts_the_cache(self, cache, count_file, monkeypatch):
        parallel_map(_counted_square, [7], jobs=1)
        assert _executions() == 1
        from repro.store import keys as store_keys

        monkeypatch.setattr(store_keys, "STORE_VERSION", store_keys.STORE_VERSION + 1)
        parallel_map(_counted_square, [7], jobs=1)
        assert _executions() == 2  # old entry missed, point re-ran

    def test_fault_plan_distinguishes_keys(self, cache, count_file):
        parallel_map(_counted_square, [8], jobs=1)
        assert _executions() == 1
        faults.arm("drop=0.25,seed=3")
        try:
            parallel_map(_counted_square, [8], jobs=1)
            assert _executions() == 2  # armed plan -> distinct key
            parallel_map(_counted_square, [8], jobs=1)
            assert _executions() == 2  # same plan -> hit
        finally:
            faults.disarm()
        parallel_map(_counted_square, [8], jobs=1)
        assert _executions() == 2  # plan off again -> original key hits

    def test_model_set_changes_request_identity(self):
        from repro.service import SweepRequest

        a = SweepRequest("fig1", models=["qsm-best"]).identity()
        b = SweepRequest("fig1", models=["bsp-whp"]).identity()
        c = SweepRequest("fig1", models=["qsm-best"], jobs=8).identity()
        assert a != b
        assert a == c  # jobs never changes identity

