"""Instrumented runs keep the fast sync path and its timings.

Observability and the phase-conflict sanitizer used to push every phase
off the vectorized epoch kernel onto a separate batched DES path.  Both
now run on epoch itself: epoch records the ``qsm.*`` spans and phase
metrics, and the sanitizer reads only the realized request queues.
Turning them on must neither move a run off epoch nor change anything it
measures: an instrumented epoch run is bit-for-bit identical with the
plain per-message oracle (``SyncPath.SLOW``).  These tests pin that
across processor counts, all three paper algorithms and the CLI.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import check, obs
from repro.algorithms.listrank import make_random_list, run_list_ranking
from repro.algorithms.prefix import run_prefix_sums
from repro.algorithms.samplesort import run_sample_sort
from repro.machine.config import MachineConfig
from repro.qsmlib.config import SoftwareConfig
from repro.qsmlib.program import RunConfig
from repro.qsmlib.runtime import SyncEngine


def _config(p: int, path: str) -> RunConfig:
    return RunConfig(
        machine=MachineConfig(p=p),
        software=SoftwareConfig(sync_path=path),
        seed=5,
    )


def _phase_fingerprint(run) -> tuple:
    """Every externally-observable timing of a run, exactly."""
    return tuple(
        (ph.start, ph.end, ph.comm_cycles, tuple(ph.compute_cycles)) for ph in run.phases
    ) + (run.total_cycles, run.trailing_compute_cycles)


@pytest.fixture
def engines(monkeypatch):
    """Every sync engine built during the test, to read its path counts."""
    built = []
    init = SyncEngine.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SyncEngine, "__init__", spy)
    return built


def _instrumented(run):
    """``run()`` with observability on and the sanitizer armed."""
    obs.enable()
    check.arm("error")
    try:
        return run()
    finally:
        check.disarm()
        obs.disable()


def _assert_stayed_on_epoch(engine, run) -> None:
    assert engine.path_counts == {"slow": 0, "epoch": len(run.phases)}


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_samplesort_bit_identical(p, engines):
    data = np.random.default_rng(42).integers(0, 1 << 30, size=2000)
    fast = _instrumented(lambda: run_sample_sort(data.copy(), config=_config(p, "epoch")))
    _assert_stayed_on_epoch(engines[-1], fast.run)
    slow = run_sample_sort(data.copy(), config=_config(p, "slow"))
    assert _phase_fingerprint(fast.run) == _phase_fingerprint(slow.run)
    np.testing.assert_array_equal(fast.result, slow.result)


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_prefix_bit_identical(p, engines):
    data = np.random.default_rng(7).integers(0, 1000, size=3000)
    fast = _instrumented(lambda: run_prefix_sums(data.copy(), config=_config(p, "epoch")))
    _assert_stayed_on_epoch(engines[-1], fast.run)
    slow = run_prefix_sums(data.copy(), config=_config(p, "slow"))
    assert _phase_fingerprint(fast.run) == _phase_fingerprint(slow.run)
    np.testing.assert_array_equal(fast.result, slow.result)


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_listrank_bit_identical(p, engines):
    succ = make_random_list(1500, seed=3)
    fast = _instrumented(lambda: run_list_ranking(succ.copy(), config=_config(p, "epoch")))
    _assert_stayed_on_epoch(engines[-1], fast.run)
    slow = run_list_ranking(succ.copy(), config=_config(p, "slow"))
    assert _phase_fingerprint(fast.run) == _phase_fingerprint(slow.run)
    np.testing.assert_array_equal(fast.ranks, slow.ranks)


def test_cli_data_identical_across_env_toggle(tmp_path, monkeypatch):
    """`qsm-repro run` with tracing and the sanitizer on the default path
    emits the same experiment data as a plain run on the oracle."""
    import json

    from repro.experiments.cli import main

    def payload(path: str, *extra: str):
        monkeypatch.setenv("QSM_SYNC_PATH", path)
        out = tmp_path / f"fig1_{path}.json"
        assert main(["run", "fig1", "--fast", "--json", str(out), *extra]) == 0
        return json.loads(out.read_text())["data"]

    trace = tmp_path / "trace.json"
    fast = payload("epoch", "--trace", str(trace), "--sanitize")
    assert trace.exists()
    assert fast == payload("slow")
