"""Unit tests for repro.store: canonical keys, the CAS, single-flight."""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.faults.plan import FaultPlan
from repro.machine.config import ClusterTopology, MachineConfig, NetworkConfig
from repro.qsmlib import RunConfig
from repro.store import (
    STORE_VERSION,
    NotStructural,
    ResultStore,
    SingleFlight,
    canonical,
    digest,
    point_key,
    point_keys,
    request_key,
)


# ----------------------------------------------------------------------
# canonical / keys
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Cfg:
    b: int
    a: float


class TestCanonical:
    def test_scalars_pass_through(self):
        assert canonical(None) is None
        assert canonical(True) is True
        assert canonical(7) == 7
        assert canonical("x") == "x"

    def test_float_uses_exact_hex(self):
        assert canonical(0.1) == ["f", (0.1).hex()]
        # Distinct floats that print alike still get distinct forms.
        assert canonical(0.1 + 0.2) != canonical(0.3)

    def test_dataclass_fields_sorted_by_name(self):
        struct = canonical(_Cfg(b=2, a=1.0))
        kind, name, items = struct
        assert kind == "dc" and name.endswith("._Cfg")
        assert [k for k, _ in items] == ["a", "b"]

    def test_set_and_dict_order_independent(self):
        assert canonical({3, 1, 2}) == canonical({2, 3, 1})
        assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})

    def test_ndarray_content_addressed(self):
        a = np.arange(8, dtype=np.int64)
        b = np.arange(8, dtype=np.int64)
        assert canonical(a) == canonical(b)
        assert canonical(a) != canonical(a.astype(np.int32))
        kind, dtype, shape, _ = canonical(a)
        assert kind == "nd" and shape == [8]

    def test_machine_config_is_canonicalisable(self):
        assert canonical(MachineConfig(p=4)) == canonical(MachineConfig(p=4))
        assert canonical(MachineConfig(p=4)) != canonical(MachineConfig(p=8))

    def test_digest_is_stable_json(self):
        assert digest(["x", 1]) == digest(["x", 1])
        assert digest(["x", 1]) != digest(["x", 2])

    def test_strict_rejects_what_only_repr_can_lower(self):
        task = (MachineConfig(p=4), {"n": 4096}, {1, 2}, np.arange(3), b"x", 0.5)
        assert canonical(task, strict=True) == canonical(task)
        # repr of a plain object embeds its address, which a later
        # object can reuse; an object array's bytes are addresses too.
        for opaque in (object(), (1, [object()]), np.array([object()])):
            with pytest.raises(NotStructural):
                canonical(opaque, strict=True)
            with pytest.raises(NotStructural):
                point_key("f", opaque, strict=True)
        assert canonical(object())[0] == "repr"  # the store's lenient form


class TestPointKey:
    def test_same_input_same_key(self):
        assert point_key("f", (4096, 1)) == point_key("f", (4096, 1))

    def test_fn_task_env_all_distinguish(self):
        base = point_key("f", (4096, 1))
        assert point_key("g", (4096, 1)) != base
        assert point_key("f", (4096, 2)) != base
        assert point_key("f", (4096, 1), env={"faults": "drop=0.1"}) != base

    def test_version_salt_invalidates(self):
        assert point_key("f", (1, 2), version=1) != point_key("f", (1, 2), version=2)

    def test_request_key_sees_models(self):
        a = request_key({"experiment": "fig1", "models": ["qsm-best"]})
        b = request_key({"experiment": "fig1", "models": ["bsp-whp"]})
        assert a != b

    @pytest.mark.parametrize(
        "values",
        [
            (0.0, -0.0),
            (1600, 1600.0),
        ],
        ids=["signed-zero", "int-float"],
    )
    def test_equal_but_differently_lowered_fields_get_distinct_keys(self, values):
        # Key fragments are cached per object, never by equality: each
        # config below equals the other, but lowers to its own key, the
        # first time (cold) and every time after (warm).
        configs = [
            MachineConfig(network=NetworkConfig(latency_cycles=value)) for value in values
        ]
        self._distinct(configs)

    def test_bool_and_int_fields_get_distinct_keys(self):
        self._distinct([RunConfig(check_semantics=True), RunConfig(check_semantics=1)])

    @staticmethod
    def _distinct(configs):
        assert configs[0] == configs[1] and hash(configs[0]) == hash(configs[1])
        tasks = [(config, 4096, 1) for config in configs]
        want = [
            digest(["qsm-point", STORE_VERSION, "f", canonical(task), canonical(None)])
            for task in tasks
        ]
        assert want[0] != want[1]
        cold = [point_key("f", task) for task in tasks]
        warm = [point_key("f", task) for task in tasks]
        assert cold == warm == want
        assert point_keys("f", tasks) == want
        assert point_keys("f", tasks[::-1]) == want[::-1]

    #: Keys computed before key fragments were cached: a disk store
    #: written then must still replay with zero misses.
    PINNED = {
        "flat": "0f2526dafa07bb8b51942d77dd36509d55f785e484610b098127a5248e26101e",
        "cluster": "625b6cd398e1d5fcd21604c2028c2afdd5055670d0184e90a8e5b41927d11dd1",
        "faulted": "242b30c6c4178e10589eebef8f583ae1094caa1da82a01775d9f0565af764936",
        "armed": "0fb751f4981d5022196ca58c9ac84ecffccc2d5fe9676528c8cdbc217cda7cc2",
        "memory": "c366c2ebe710989b7fc350edd2be6dbbe4cd1f2e344325727df0a97cc1bc098f",
        "recorded": "a0a3569308203ad20af160b43c2c3fc27c69d839476bcf4490b16076b4c3f093",
    }

    def test_keys_written_before_fragment_caching_still_match(self):
        fn = "repro.experiments.sweeps._sweep_point_task"
        flat = MachineConfig()
        cluster = MachineConfig().with_topology(ClusterTopology(cores_per_node=4))
        faulted = (
            MachineConfig()
            .with_network(latency_cycles=25600.0)
            .with_faults(FaultPlan(seed=3, drop_prob=0.05))
        )
        run = RunConfig(machine=faulted, seed=1, check_semantics=False)
        memory_env = {"store": None, "sync": "epoch", "jobs": 1, "policy": False}
        for _ in range(2):  # cold, then with every fragment cached
            keys = {
                "flat": point_key(fn, (flat, 4096, 1), strict=True),
                "cluster": point_key(fn, (cluster, 4096, 1), strict=True),
                "faulted": point_key(fn, (faulted, 4096, 1), strict=True),
                "armed": point_key(
                    fn, (flat, 4096, 1), env={"faults": "drop=0.05,seed=3"}, strict=True
                ),
                "memory": point_keys(fn, [(cluster, 4096, 1)], env=memory_env, strict=True)[0],
                "recorded": point_key(
                    "recorded:sample_sort", (4096, run.recorded()), strict=True
                ),
            }
            assert keys == self.PINNED


# ----------------------------------------------------------------------
# CAS
# ----------------------------------------------------------------------
KEY = "ab" + "0" * 62
KEY2 = "cd" + "1" * 62


class TestResultStore:
    def test_blob_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        assert store.get_blob(KEY) is None
        assert store.put_blob(KEY, b"payload") is True
        assert store.put_blob(KEY, b"payload") is False  # already present
        assert store.get_blob(KEY) == b"payload"
        assert KEY in store and KEY2 not in store

    def test_malformed_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        with pytest.raises(ValueError):
            store.put_blob("../escape", b"x")

    def test_no_temp_debris_after_put(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        store.put_blob(KEY, b"x" * 100)
        names = [p.name for p in (tmp_path / "cas" / "objects").rglob("*") if p.is_file()]
        assert names == [f"{KEY}.bin"]

    def test_corrupt_object_quarantined_and_missed(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        store.put_blob(KEY, b"payload-bytes")
        path = store._path(KEY)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert store.get_blob(KEY) is None
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()
        assert store.stats().corrupt == 1
        # The key is writable again after quarantine.
        assert store.put_blob(KEY, b"payload-bytes") is True
        assert store.get_blob(KEY) == b"payload-bytes"

    def test_capture_roundtrip_numpy(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        capture = ({"result": np.arange(5)}, [1, 2], None, {})
        store.put_capture(KEY, capture)
        out = store.get_capture(KEY)
        np.testing.assert_array_equal(out[0]["result"], np.arange(5))
        assert out[1:] == capture[1:]

    def test_stats_and_keys(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        store.put_blob(KEY, b"aaaa")
        store.put_blob(KEY2, b"bbbb")
        st = store.stats()
        assert st.objects == 2 and st.corrupt == 0 and st.total_bytes > 0
        assert sorted(store.keys()) == sorted([KEY, KEY2])
        assert json.loads(json.dumps(st.to_dict()))["objects"] == 2

    def test_verify(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        store.put_blob(KEY, b"good")
        store.put_blob(KEY2, b"bad")
        path = store._path(KEY2)
        path.write_bytes(b"not a header\ngarbage")
        ok, bad = store.verify()
        assert (ok, bad) == (1, 1)

    def test_gc_age_and_budget(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        store.put_blob(KEY, b"a" * 10)
        store.put_blob(KEY2, b"b" * 10)
        old = time.time() - 1000
        os.utime(store._path(KEY), (old, old))
        removed = store.gc(max_age_seconds=500)
        assert removed == 1 and KEY not in store and KEY2 in store
        removed = store.gc(max_bytes=0)
        assert removed == 1 and KEY2 not in store

    def test_gc_sweeps_debris(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        store.put_blob(KEY, b"payload")
        path = store._path(KEY)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert store.get_blob(KEY) is None  # quarantines
        assert store.gc() == 1  # removes the .corrupt file
        assert store.stats().corrupt == 0


# ----------------------------------------------------------------------
# single-flight
# ----------------------------------------------------------------------
class TestSingleFlight:
    def test_leader_then_follower(self):
        sf = SingleFlight()
        assert sf.begin("k") is True
        assert sf.begin("k") is False
        assert sf.inflight() == 1
        sf.finish("k")
        assert sf.inflight() == 0
        sf.finish("k")  # idempotent
        assert sf.begin("k") is True  # reusable after finish
        sf.finish("k")

    def test_wait_without_flight_returns_immediately(self):
        assert SingleFlight().wait("nothing") is True

    def test_wait_timeout(self):
        sf = SingleFlight()
        sf.begin("k")
        assert sf.wait("k", timeout=0.01) is False
        sf.finish("k")

    def test_follower_blocks_until_leader_finishes(self):
        sf = SingleFlight()
        sf.begin("k")
        released = []

        def follower():
            sf.wait("k", timeout=5.0)
            released.append(time.monotonic())

        t = threading.Thread(target=follower)
        t.start()
        time.sleep(0.05)
        assert not released
        t0 = time.monotonic()
        sf.finish("k")
        t.join(timeout=5.0)
        assert released and released[0] >= t0


# ----------------------------------------------------------------------
# cross-process single-flight (the hardened service's coordination)
# ----------------------------------------------------------------------
class TestFileFlight:
    def test_leader_then_follower_across_instances(self, tmp_path):
        from repro.store import FileFlight

        a = FileFlight(tmp_path / "flight")
        b = FileFlight(tmp_path / "flight")  # a second "process"
        assert a.begin("k") is True
        assert b.begin("k") is False
        assert a.inflight() == 1 and b.inflight() == 1
        a.finish("k")
        assert a.inflight() == 0
        assert b.wait("k", timeout=1.0) is True
        assert b.begin("k") is True  # reusable after finish
        b.finish("k")

    def test_wait_without_flight_returns_immediately(self, tmp_path):
        from repro.store import FileFlight

        assert FileFlight(tmp_path / "flight").wait("nothing") is True

    def test_wait_timeout(self, tmp_path):
        from repro.store import FileFlight

        ff = FileFlight(tmp_path / "flight")
        ff.begin("k")
        assert ff.wait("k", timeout=0.05) is False
        ff.finish("k")

    def test_dead_leader_lock_is_stolen(self, tmp_path):
        """The kill -9 case: a lock owned by a dead pid must not wedge
        every future sweep of that point."""
        import subprocess

        from repro.store import FileFlight

        # A real pid that is guaranteed dead once communicate() returns.
        proc = subprocess.Popen(["true"])
        proc.wait()
        ff = FileFlight(tmp_path / "flight")
        lock = tmp_path / "flight" / "k.lock"
        lock.write_text(json.dumps({"pid": proc.pid, "nonce": "dead", "ts": 0}))
        assert ff.wait("k", timeout=1.0) is True  # steals, does not block
        lock.write_text(json.dumps({"pid": proc.pid, "nonce": "dead", "ts": 0}))
        assert ff.begin("k") is True  # steals and takes leadership
        ff.finish("k")
        assert ff.inflight() == 0

    def test_finish_never_releases_a_stolen_lock(self, tmp_path):
        """An old leader coming back after its lock aged out and was
        re-taken must not release the new leader's lock."""
        from repro.store import FileFlight

        old = FileFlight(tmp_path / "flight")
        assert old.begin("k") is True
        # Age the lock past a new contender's staleness window (the pid
        # is alive, so only the age fallback applies) and let it steal.
        lock = tmp_path / "flight" / "k.lock"
        past = time.time() - 60
        os.utime(lock, (past, past))
        new = FileFlight(tmp_path / "flight", stale_after_seconds=5.0)
        assert new.begin("k") is True
        assert old.inflight() == 1
        old.finish("k")  # nonce mismatch: must be a no-op
        assert new.inflight() == 1
        new.finish("k")
        assert new.inflight() == 0

    def test_unreadable_lock_gets_grace_then_steals(self, tmp_path):
        from repro.store import FileFlight

        ff = FileFlight(tmp_path / "flight")
        lock = tmp_path / "flight" / "k.lock"
        lock.write_text("not json")
        assert ff.begin("k") is False  # fresh garbage: assume mid-write
        old = time.time() - 60
        os.utime(lock, (old, old))
        assert ff.begin("k") is True  # aged garbage: stolen
        ff.finish("k")

    def test_stale_steal_has_a_single_winner(self, tmp_path):
        """Two contenders finding the same stale lock: exactly one may
        take leadership (the claim is an atomic rename, not a racy
        check-then-unlink), and no steal debris is left behind."""
        import subprocess

        from repro.store import FileFlight

        proc = subprocess.Popen(["true"])
        proc.wait()
        flight_dir = tmp_path / "flight"
        a = FileFlight(flight_dir)
        b = FileFlight(flight_dir)
        lock = flight_dir / "k.lock"
        lock.write_text(json.dumps({"pid": proc.pid, "nonce": "dead", "ts": 0}))
        outcomes = [a.begin("k"), b.begin("k")]
        assert outcomes == [True, False]  # a stole; b follows the new leader
        assert a.inflight() == 1
        assert list(flight_dir.iterdir()) == [lock]  # no .steal- leftovers
        a.finish("k")
        assert a.inflight() == 0

    def test_steal_hands_back_a_lock_that_changed_hands(self, tmp_path):
        """The review interleaving: contender B judges the lock stale,
        but before B's claim lands the stale leader's lock is replaced
        by a NEW live leader's.  B must hand the live lock back intact
        instead of deleting it (which would mint two leaders)."""
        import subprocess

        from repro.store import FileFlight

        proc = subprocess.Popen(["true"])
        proc.wait()
        flight_dir = tmp_path / "flight"
        leader = FileFlight(flight_dir)
        b = FileFlight(flight_dir)
        lock = flight_dir / "k.lock"
        lock.write_text(json.dumps({"pid": proc.pid, "nonce": "dead", "ts": 0}))

        real_is_stale = b._is_stale

        def lock_changes_hands_mid_check(path):
            verdict = real_is_stale(path)
            lock.unlink()  # the stale lock is claimed elsewhere...
            assert leader.begin("k")  # ...and a live leader re-creates it
            return verdict

        b._is_stale = lock_changes_hands_mid_check
        assert b._try_steal(lock) is False  # claim verified, handed back
        b._is_stale = real_is_stale

        assert leader.inflight() == 1  # the live leader's lock survived
        assert b.begin("k") is False  # b is its follower, not a co-leader
        leader.finish("k")
        assert leader.inflight() == 0


# ----------------------------------------------------------------------
# store hardening: gc vs concurrent writers, quarantine counter
# ----------------------------------------------------------------------
class TestStoreHardening:
    def test_gc_spares_fresh_tmp_files(self, tmp_path):
        """A .tmp file younger than the grace window is a concurrent
        writer mid-atomic-write; gc must not unlink it."""
        store = ResultStore(tmp_path / "cas")
        store.put_blob(KEY, b"payload")
        shard = store._path(KEY).parent
        fresh = shard / f"{KEY}.bin.tmp9999"
        fresh.write_bytes(b"half-written")
        assert store.gc() == 0
        assert fresh.exists()
        # Once abandoned past the grace window it is debris.
        old = time.time() - 2 * ResultStore.TMP_GRACE_SECONDS
        os.utime(fresh, (old, old))
        assert store.gc() == 1
        assert not fresh.exists()

    def test_quarantine_bumps_store_counter(self, tmp_path):
        import repro.store as store_state

        store = ResultStore(tmp_path / "cas")
        store.put_blob(KEY, b"payload")
        raw = bytearray(store._path(KEY).read_bytes())
        raw[-1] ^= 0xFF
        store._path(KEY).write_bytes(bytes(raw))
        store_state.reset_counters()
        assert store.get_blob(KEY) is None
        assert store_state.counters()["quarantined"] == 1
        store_state.reset_counters()

    def test_verify_safe_under_concurrent_writer(self, tmp_path):
        """verify() walking the tree while another thread writes objects
        must neither crash nor quarantine the in-flight writes."""
        store = ResultStore(tmp_path / "cas")
        stop = threading.Event()
        written = []

        def writer():
            i = 0
            while not stop.is_set():
                key = digest({"concurrent": i})
                store.put_blob(key, b"x" * 64)
                written.append(key)
                i += 1

        t = threading.Thread(target=writer)
        t.start()
        try:
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                ok, bad = store.verify()
                assert bad == 0
        finally:
            stop.set()
            t.join(timeout=10.0)
        ok, bad = store.verify()
        assert bad == 0 and ok == len(set(written))
