"""Integration tests for the content-addressed cache in parallel_map.

Contracts (see docs/SERVICE.md): a second identical sweep executes
zero simulator points; results are byte-identical between fresh and
cached runs under any job count; failures are never cached; the
hit/miss/coalesced counters surface through repro.store and repro.obs;
key invalidation covers the version salt, the armed fault plan and the
obs and sanitizer modes.  ``TestProcessMemo`` pins, clause by clause,
the in-memory tier that replays points when no store is installed
(the executor's module docstring), ``TestDiskStoreTier`` the rules the
on-disk tier shares with it, and ``TestRecordedRuns`` the recorded
sample-sort runs the memory tier prices on other machines.
"""

import functools
import os
import pickle
import sys
import threading
import types

import numpy as np
import pytest

from repro import check, faults, obs, store
from repro.experiments import executor
from repro.experiments.executor import (
    ExecutionPolicy,
    is_failed,
    parallel_map,
)
from repro.experiments.sweeps import sample_sort_run
from repro.faults.plan import FaultPlan
from repro.machine.config import ClusterTopology, MachineConfig, NodeConfig
from repro.store.memory import (
    LIVE_ARRAY_OVERHEAD_BYTES,
    MEMO_BUDGET_BYTES,
    MEMO_ENTRY_CAP_BYTES,
    live_size,
)
from tests.test_parallel_executor import _racy_point
from tests.test_price_differential import assert_same_run


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


def _observed_square(x):
    """Counts its executions and, with obs on, one ``test.points`` per point."""
    if obs.enabled():
        obs.metrics().counter("test.points").inc()
    return _counted_square(x)


def _counted_list(x):
    """Returns a mutable result."""
    _counted_square(x)
    return [x]


def _counted_bytes(size):
    """Returns a result whose capture is larger than *size* bytes."""
    _counted_square(size)
    return bytes(size)


def _counted_lock(x):
    """Returns a result that does not pickle."""
    _counted_square(x)
    return x, threading.Lock()


def _counted_tag(task):
    with open(_count_file(), "a") as fh:
        fh.write(f"{task[0]}\n")
    return task[0]


def _racy_or_raise(seed):
    if seed < 0:
        raise ValueError(f"bad seed {seed}")
    return _racy_point(seed)


class _Square:
    def __call__(self, x):
        return _counted_square(x)


class _Opaque:
    """Has no canonical form: its repr embeds its address."""


def _held(tier) -> int:
    """Entries the tier under test holds."""
    if tier == "memory":
        return len(store.memory_store())
    return len(store.active_store().keys())


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

    def test_uninstalled_store_means_in_memory_replay(self, count_file):
        assert store.active_store() is None
        store.reset_counters()
        assert parallel_map(_counted_square, [1, 2], jobs=1) == [1, 4]
        assert parallel_map(_counted_square, [1, 2], jobs=1) == [1, 4]
        assert _executions() == 2  # the memory tier replayed both points
        counts = store.counters()  # and counted them as the disk tier does
        assert (counts["hits"], counts["misses"]) == (2, 2)


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

    def test_failed_follower_is_reported_failed(self, cache, count_file):
        # Another flight holds the point and finishes without storing it,
        # so this sweep computes it inline: a failure must stream as one.
        executor.set_policy(ExecutionPolicy(max_retries=0, backoff_seconds=0.0))
        key = store.point_key(f"{__name__}._poisoned", 2)
        assert store.flight_begin(key)
        events = []
        store.set_listener(events.append)
        release = threading.Timer(0.2, store.flight_finish, args=(key,))
        release.start()
        try:
            out = parallel_map(_poisoned, [2], jobs=1)
        finally:
            release.join()
        assert is_failed(out[0]) and len(executor.drain_failures()) == 1
        assert store.counters()["inflight"] == 1  # the sweep followed this flight
        assert [(e["counter"], e["status"]) for e in events] == [("misses", "failed")]
        assert _executions() == 1 and store.active_store().keys() == []


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

    def test_obs_mode_distinguishes_keys(self, cache, count_file):
        # A point stored by a plain run carries no obs payload: replaying
        # it under --metrics/--trace would export nothing for it.
        parallel_map(_observed_square, [1, 2], jobs=1)
        try:
            obs.enable(spans=False)
            parallel_map(_observed_square, [1, 2], jobs=1)
            assert obs.metrics().counter("test.points").value == 2
            obs.enable(spans=True)  # spans are keyed apart from metrics
            parallel_map(_observed_square, [1, 2], jobs=1)
            assert _executions() == 6
            obs.enable(spans=True)  # same mode: replays its payload
            parallel_map(_observed_square, [1, 2], jobs=1)
            assert _executions() == 6
            assert obs.metrics().counter("test.points").value == 2
        finally:
            obs.disable()
        parallel_map(_observed_square, [1, 2], jobs=1)
        assert _executions() == 6  # obs off again -> the plain keys hit

    def test_sanitizer_mode_distinguishes_keys(self, cache, capsys):
        # A point stored unsanitized carries no diagnostics: replaying
        # it under --sanitize would report a racy sweep clean.
        tasks = [3, 4]
        assert parallel_map(_racy_point, tasks, jobs=1) == tasks
        check.arm("warn")
        try:
            for _ in range(2):  # computed, then replayed from the store
                parallel_map(_racy_point, tasks, jobs=1)
                assert [d.code for d in check.drain_diagnostics()] == ["QS002"] * 2
        finally:
            check.disarm()
        assert store.counters()["hits"] == 2
        capsys.readouterr()

    def test_model_set_changes_request_identity(self):
        from repro.service import SweepRequest

        a = SweepRequest("fig1", models=["qsm-best"]).identity()
        b = SweepRequest("fig1", models=["bsp-whp"]).identity()
        c = SweepRequest("fig1", models=["qsm-best"], jobs=8).identity()
        assert a != b
        assert a == c  # jobs never changes identity


class _TierRules:
    """The cache rules both tiers keep; a subclass's ``tier`` fixture
    picks the tier ("memory", or "disk" with a store installed)."""

    @pytest.mark.parametrize(
        "make_fn",
        [
            lambda: (lambda x: _counted_square(x)),
            lambda: functools.partial(_counted_square),
            lambda: _Square(),
            lambda: _Square().__call__,
        ],
        ids=["lambda", "partial", "instance", "method"],
    )
    def test_only_module_level_functions(self, tier, make_fn, count_file):
        fn = make_fn()
        for _ in range(2):
            assert parallel_map(fn, [1, 2], jobs=1) == [1, 4]
        assert _executions() == 4 and _held(tier) == 0

    def test_closures_and_rebound_functions_run_every_time(self, tier, count_file, monkeypatch):
        original = _counted_square

        def closure(x):
            return original(x)

        monkeypatch.setattr(sys.modules[__name__], "_counted_square", closure)
        for fn in (closure, original):  # original is no longer bound by name
            parallel_map(fn, [1, 2], jobs=1)
            parallel_map(fn, [1, 2], jobs=1)
        assert _executions() == 8 and _held(tier) == 0

        def scaled(k):
            def times_k(x):
                return k * x

            return times_k

        # One qualified name, two captured values: two answers.
        assert parallel_map(scaled(2), [1, 2], jobs=1) == [2, 4]
        assert parallel_map(scaled(3), [1, 2], jobs=1) == [3, 6]

    def test_only_structural_tasks(self, tier, count_file):
        tasks = [("a", 1), ("b", _Opaque()), ("c", 2)]
        assert parallel_map(_counted_tag, tasks, jobs=1) == ["a", "b", "c"]
        assert parallel_map(_counted_tag, tasks, jobs=1) == ["a", "b", "c"]
        with open(_count_file()) as fh:
            assert fh.read().split() == ["a", "b", "c", "b"]

    def test_only_successful_points_kept(self, tier, count_file):
        executor.set_policy(ExecutionPolicy(max_retries=0, backoff_seconds=0.0))
        for _ in range(2):
            out = parallel_map(_poisoned, [1, 2, 3], jobs=1)
            assert out[0] == 1 and is_failed(out[1]) and out[2] == 9
            assert len(executor.drain_failures()) == 1
        assert _executions() == 3 + 1  # only the failed point ran again
        executor.clear_policy()
        for _ in range(2):  # plain engine: the raise propagates, each time
            with pytest.raises(ValueError, match="poisoned point 2"):
                parallel_map(_poisoned, [1, 2, 3], jobs=1)
        # Only memory keys the policy, so there point 1 ran once more.
        assert _executions() == 4 + (2 if tier == "memory" else 1) + 1

    def test_raise_keeps_the_side_state_of_earlier_points(self, tier, sanitizer_warn, capsys):
        _racy_point(6)  # recorded before the map
        with pytest.raises(ValueError):
            parallel_map(_racy_or_raise, [3, 4, -1, 5], jobs=1)
        cells = [d.message.split("cell ")[1][0] for d in check.drain_diagnostics()]
        assert cells == ["2", "3", "0"]  # as the plain loop left them
        capsys.readouterr()

    def test_replays_side_state(self, tier, sanitizer_warn, capsys):
        for _ in range(2):
            assert parallel_map(_racy_point, [3, 4], jobs=1) == [3, 4]
            assert [d.code for d in check.drain_diagnostics()] == ["QS002"] * 2
        assert _held(tier) == 2
        capsys.readouterr()

    def test_holds_bytes_not_objects(self, tier, count_file):
        first = parallel_map(_counted_list, [3], jobs=1)
        first[0].append("mutated by the caller")
        assert parallel_map(_counted_list, [3], jobs=1) == [[3]]
        assert _executions() == 1
        if tier == "memory":
            assert MEMO_BUDGET_BYTES == store.memory_store().budget == 4 << 20

    def test_unpicklable_results_are_returned_not_kept(self, tier, count_file):
        for _ in range(2):
            out = parallel_map(_counted_lock, [1, 2], jobs=1)
            assert [x for x, _ in out] == [1, 2]
        assert _executions() == 4 and _held(tier) == 0


class TestProcessMemo(_TierRules):
    """Without a store, module-level workers replay repeated points."""

    @pytest.fixture
    def tier(self):
        return "memory"

    def test_obs_on_runs_every_time(self, count_file, obs_state):
        parallel_map(_counted_square, [1, 2], jobs=1)
        parallel_map(_counted_square, [1, 2], jobs=1)
        assert _executions() == 4 and len(store.memory_store()) == 0

    def test_installed_store_keeps_the_store_path(self, tmp_path, count_file):
        parallel_map(_counted_square, [1, 2], jobs=1)  # memo now holds both
        store.set_store(tmp_path / "cas")
        parallel_map(_counted_square, [1, 2], jobs=1)
        parallel_map(_counted_square, [1, 2], jobs=1)
        counts = store.counters()
        store.clear_store()
        assert _executions() == 4  # the memo's 2, then the store's 2 misses
        assert (counts["hits"], counts["misses"], counts["inflight"]) == (2, 2, 2)

    @pytest.mark.parametrize("change", ["faults", "sanitize", "sync", "jobs", "policy"])
    def test_key_covers_the_engine_state(self, change, count_file, monkeypatch):
        parallel_map(_counted_square, [1, 2], jobs=1)
        jobs = 1
        if change == "faults":
            faults.arm("drop=0.25,seed=3")
        elif change == "sanitize":
            check.arm("warn")
        elif change == "sync":
            monkeypatch.setenv("QSM_SYNC_PATH", "slow")
        elif change == "jobs":
            jobs = 2
        else:
            executor.set_policy(ExecutionPolicy(max_retries=0, backoff_seconds=0.0))
        try:
            assert parallel_map(_counted_square, [1, 2], jobs=jobs) == [1, 4]
            assert _executions() == 4  # a new key: both points ran again
            assert parallel_map(_counted_square, [1, 2], jobs=jobs) == [1, 4]
            assert _executions() == 4  # the same state replays
        finally:
            if change == "faults":
                faults.disarm()
            elif change == "sanitize":
                check.disarm()

    def test_sync_path_keyed_as_resolved(self, count_file, monkeypatch):
        parallel_map(_counted_square, [1], jobs=1)
        monkeypatch.setenv("QSM_SYNC_PATH", " EPOCH ")  # the default path
        parallel_map(_counted_square, [1], jobs=1)
        assert _executions() == 1

    def test_duplicate_tasks_coalesce_in_batch(self, count_file):
        store.reset_counters()
        assert parallel_map(_counted_square, [3, 3, 3], jobs=1) == [9, 9, 9]
        assert _executions() == 1
        assert store.counters()["coalesced"] == 2

    def test_hits_count_in_store_counters_and_listener(self, count_file):
        events = []
        store.reset_counters()
        store.set_listener(events.append)
        for _ in range(2):
            parallel_map(_counted_square, [1, 2], jobs=1)
        assert _executions() == 2
        assert [(e["counter"], e["status"]) for e in events] == [
            ("misses", "computed"), ("misses", "computed"), ("hits", "hit"), ("hits", "hit")
        ]
        counts = store.counters()
        assert [counts[k] for k in ("hits", "misses", "coalesced", "inflight")] == [2, 2, 0, 2]

    def test_lru_under_a_byte_budget(self):
        memo = store.MemoryStore(budget=300)
        blob = b"x" * 90
        for key in ("k1", "k2", "k3"):
            memo.put_blob(key, blob)
        assert len(memo) == 3 and memo.nbytes == 3 * 92
        assert memo.get_blob("k1") == blob  # k1 is now the most recent
        memo.put_blob("k4", blob)  # evicts k2, the least recently used
        assert memo.get_blob("k2") is None and memo.get_blob("k1") == blob
        assert memo.nbytes == 3 * 92
        memo.put_blob("big", b"y" * 400)  # larger than the budget: not kept
        assert memo.get_blob("big") is None and len(memo) == 3
        memo.clear()
        assert len(memo) == 0 and memo.nbytes == 0

    def test_lru_accounting_survives_threads(self):
        memo = store.MemoryStore(budget=2_000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def churn(t):
            for i in range(400):
                memo.put_blob(f"k{(t * 7 + i) % 50}", bytes(10 + (i + t) % 30))
                memo.get_blob(f"k{i % 50}")

        try:
            threads = [threading.Thread(target=churn, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        held = sum(len(k) + len(v) for k, v in memo._entries.items())
        assert memo.nbytes == held <= memo.budget

    def test_live_objects_share_the_account(self):
        memo = store.MemoryStore(budget=4_000)
        live = {"arrays": [np.arange(40.0)], "name": "run"}
        size = live_size(live["arrays"])
        # The live object and two of these blobs fit; a third does not.
        blob = b"x" * ((memo.budget - len("live") - size) // 2 - 2)
        assert memo.put_object("live", live, size)
        assert memo.nbytes == len("live") + size
        for key in ("b1", "b2"):
            memo.put_blob(key, blob)
        # Kept as itself, and only under its own kind.
        assert memo.get_blob("live") is None and memo.get_object("b1") is None
        assert memo.get_object("live") is live
        memo.put_blob("b3", blob)  # evicts b1, the least recently used
        assert list(memo._entries) == ["b2", "live", "b3"]
        assert memo.nbytes == len("live") + size + 2 * (2 + len(blob)) <= memo.budget
        memo.put_blob("b4", blob)  # evicts b2
        assert list(memo._entries) == ["live", "b3", "b4"]
        memo.put_blob("b5", blob)  # evicts the live object, then b3
        assert list(memo._entries) == ["b4", "b5"]
        assert memo.get_object("live") is None and memo.nbytes == 2 * (2 + len(blob))
        big = [bytes(memo.entry_cap)]  # above the entry cap: not kept
        assert not memo.put_object("big", big, memo.entry_cap)
        assert memo.get_object("big") is None and len(memo) == 2
        memo.clear()
        assert len(memo) == 0 and memo.nbytes == 0

    def test_live_size_counts_each_array_once(self):
        base = np.zeros(1_000)
        assert live_size([base]) == 8_000 + LIVE_ARRAY_OVERHEAD_BYTES
        assert live_size([base, base]) == live_size([base])
        assert live_size([base, base.astype(np.uint8)]) == 9_000 + 2 * LIVE_ARRAY_OVERHEAD_BYTES
        assert live_size([]) == 0

    def test_over_cap_capture_is_not_kept(self, count_file):
        memory = store.memory_store()
        parallel_map(_counted_square, [1, 2], jobs=1)
        held = (len(memory), memory.nbytes)
        big = MEMO_ENTRY_CAP_BYTES
        assert MEMO_ENTRY_CAP_BYTES == 64 << 10
        for _ in range(2):
            assert parallel_map(_counted_bytes, [big], jobs=1) == [bytes(big)]
        assert _executions() == 2 + 2  # the big point ran both times
        assert (len(memory), memory.nbytes) == held  # evicting nothing
        parallel_map(_counted_square, [1, 2], jobs=1)
        assert _executions() == 4

    def test_over_cap_batch_pickles_one_capture(self, count_file, monkeypatch):
        from repro.store import memory

        pickled = []

        def dumps(obj, protocol):
            pickled.append(obj)
            return pickle.dumps(obj, protocol=protocol)

        monkeypatch.setattr(memory, "pickle", types.SimpleNamespace(
            dumps=dumps, loads=pickle.loads, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL
        ))
        big = MEMO_ENTRY_CAP_BYTES
        sizes = [big, big + 1, big + 2, 8]
        assert parallel_map(_counted_bytes, sizes, jobs=1) == [bytes(n) for n in sizes]
        assert len(pickled) == 1  # the first capture, refused for its size
        # The batch's last point would have fit, but it was not offered:
        # it runs again in the next batch, which keeps it.
        assert len(store.memory_store()) == 0
        assert parallel_map(_counted_bytes, [8], jobs=1) == [bytes(8)]
        assert _executions() == 5 and len(pickled) == 2
        assert len(store.memory_store()) == 1
        # A batch that fits is pickled and kept point by point.
        parallel_map(_counted_bytes, [1, 2, 3], jobs=1)
        assert len(pickled) == 5 and len(store.memory_store()) == 4

    def test_table4_replays_fig4_points(self, sample_sort_calls):
        from repro.experiments.registry import run_experiment

        cold = run_experiment("table4", fast=True, seed=0).to_json_dict()["data"]
        assert sample_sort_calls == {"runs": 12, "prices": 60}  # 12 programs, 72 points
        cold_points = sum(sample_sort_calls.values())
        executor.clear_memo()
        run_experiment("fig4", fast=True, seed=0)
        sample_sort_calls.clear()
        warm = run_experiment("table4", fast=True, seed=0).to_json_dict()["data"]
        assert cold_points - sum(sample_sort_calls.values()) == 36
        assert warm == cold


class TestDiskStoreTier(_TierRules):
    """With a store installed, the disk tier keeps the same rules."""

    @pytest.fixture
    def tier(self, tmp_path):
        store.set_store(tmp_path / "cas")
        return "disk"


@pytest.fixture
def sample_sort_calls(monkeypatch):
    """Counts the sample-sort programs the sweeps run (``runs``) and the
    recorded runs they price instead (``prices``)."""
    from repro.experiments import sweeps

    calls = {}

    def counting(name, real):
        def spy(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        return spy

    monkeypatch.setattr(sweeps, "run_sample_sort", counting("runs", sweeps.run_sample_sort))
    monkeypatch.setattr(sweeps, "price_run", counting("prices", sweeps.price_run))
    return calls


class TestRecordedRuns:
    """Without a store, a sample-sort program runs once per process and
    is priced on every machine that differs only in what pricing reads."""

    N = 4096

    def _point(self, machine=None, n=N, seed=1):
        return sample_sort_run(machine or MachineConfig(), n, seed)

    @pytest.mark.parametrize("change", ["n", "seed", "p", "node", "software"])
    def test_program_inputs_run_it_again(self, change, sample_sort_calls, monkeypatch):
        self._point()
        if change == "n":
            self._point(n=self.N + 1)
        elif change == "seed":
            self._point(seed=2)
        elif change == "p":
            self._point(MachineConfig(p=8))
        elif change == "node":
            self._point(MachineConfig(node=NodeConfig(issue_width=2)))
        else:
            monkeypatch.setenv("QSM_SYNC_PATH", "slow")
            self._point()
        assert sample_sort_calls == {"runs": 2}

    @pytest.mark.parametrize("change", ["l", "o", "g", "topology", "faults"])
    def test_priced_inputs_reuse_the_recorded_run(self, change, sample_sort_calls):
        base = MachineConfig()
        machine = {
            "l": base.with_network(latency_cycles=25600.0),
            "o": base.with_network(overhead_cycles=100.0),
            "g": base.with_network(gap_cycles_per_byte=12.0),
            "topology": base.with_topology(ClusterTopology(cores_per_node=4)),
            "faults": base.with_faults(FaultPlan(seed=3, drop_prob=0.05)),
        }[change]
        self._point()
        faults.reset_tally()
        priced = self._point(machine)
        priced_tally = faults.drain_tally()
        assert sample_sort_calls == {"runs": 1, "prices": 1}
        executor.clear_memo()
        fresh = self._point(machine)
        assert faults.drain_tally() == priced_tally
        assert bool(priced_tally) == (change == "faults")
        assert sample_sort_calls == {"runs": 2, "prices": 1}
        assert_same_run(priced, fresh)

    def test_armed_fault_plan_reuses_the_recorded_run(self, sample_sort_calls):
        self._point()
        faults.arm("drop=0.05,seed=3")
        try:
            priced = self._point()
            priced_tally = faults.drain_tally()
            executor.clear_memo()
            fresh = self._point()
            assert faults.drain_tally() == priced_tally and priced_tally
        finally:
            faults.disarm()
        assert sample_sort_calls == {"runs": 2, "prices": 1}
        assert_same_run(priced, fresh)

    @pytest.mark.parametrize("state", ["store", "obs", "sanitizer"])
    def test_no_reuse_when_the_memo_is_off(self, state, tmp_path, sample_sort_calls):
        if state == "store":
            store.set_store(tmp_path / "cas")
        elif state == "obs":
            obs.enable()
        else:
            check.arm("warn")
        try:
            self._point()
            self._point(MachineConfig().with_network(latency_cycles=400.0))
        finally:
            obs.disable()
            check.disarm()
            store.clear_store()
        assert sample_sort_calls == {"runs": 2}
        assert len(store.memory_store()) == 0

    def test_held_live_and_forgotten_on_clear(self, sample_sort_calls):
        run = self._point()
        memory = store.memory_store()
        assert len(memory) == 1
        (key, entry), = memory._entries.items()
        kept = memory.get_object(key)
        recorded, recording = kept
        assert len(recording) == recorded.n_phases == run.n_phases == 5
        # Charged by the arrays it holds, not a pickle's size.
        arrays = [*recorded.arrays(), *recording.layout.arrays()]
        assert memory.nbytes == len(key) + live_size(arrays) <= MEMO_ENTRY_CAP_BYTES
        # A recall prices the objects kept: no copy, no pickle.
        self._point(MachineConfig().with_network(latency_cycles=400.0))
        assert memory.get_object(key) is kept and recorded.phases[0] is not run.phases[0]
        assert sample_sort_calls == {"runs": 1, "prices": 1}
        executor.clear_memo()
        assert len(memory) == 0 and memory.nbytes == 0
        self._point()
        assert sample_sort_calls == {"runs": 2, "prices": 1}

    def test_mutated_results_leave_later_ones_as_fresh(self, sample_sort_calls):
        other = MachineConfig().with_network(latency_cycles=25600.0)
        for machine in (None, other, other):  # recorded, priced, priced again
            run = self._point(machine)
            for phase in run.phases:
                for name, value in vars(phase).items():
                    if isinstance(value, np.ndarray):
                        with pytest.raises(ValueError, match="read-only"):
                            value[0] = -1
                phase.start = phase.ready = phase.end = -1.0
                phase.kappa = -1
            run.phases.pop()
            run.returns.append("mutated")
            for values in run.observations.values():
                values.clear()
            run.observations["mutated"] = [(0, 0, 0.0)]
            run.trailing_compute_cycles = -1.0
        assert sample_sort_calls == {"runs": 1, "prices": 2}
        recorded, priced = self._point(), self._point(other)
        assert sample_sort_calls == {"runs": 1, "prices": 4}
        executor.clear_memo()
        assert_same_run(priced, self._point(other))
        executor.clear_memo()
        assert_same_run(recorded, self._point())

    def test_sample_sort_sweeps_run_15_programs_for_96_points(self, sample_sort_calls):
        from repro.experiments.registry import run_experiment

        for exp in ("fig2", "fig4", "fig8", "table4"):
            run_experiment(exp, fast=True, seed=0)
        assert sample_sort_calls["runs"] == 15
        assert sample_sort_calls["runs"] + sample_sort_calls["prices"] == 96
