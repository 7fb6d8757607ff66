"""The vectorized epoch kernel must be timing-equivalent to the oracle.

``SyncPath.EPOCH`` prices a whole bulk-synchronous phase with numpy
array math and one flat merge loop; the discrete-event simulator is
only consulted at the phase boundary.  That is a pure simulator
optimisation: every observable quantity — per-phase start/ready/end
times, communication cycles, algorithm outputs, sweep rows, experiment
tables — must come out bit-for-bit identical with the per-message DES
oracle (``SyncPath.SLOW``).  These tests pin that contract across
processor counts and all three paper algorithms, the automatic fallback
to the oracle when a feature needs per-message events, and the CLI/env
plumbing that selects the path.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms.listrank import make_random_list, run_list_ranking
from repro.algorithms.prefix import run_prefix_sums
from repro.algorithms.samplesort import run_sample_sort
from repro.faults.plan import FaultPlan
from repro.machine.config import MachineConfig
from repro.qsmlib.config import SoftwareConfig, SyncPath
from repro.qsmlib.program import RunConfig

PATHS = ("slow", "epoch")


def _config(p: int, path: str, machine: MachineConfig = None) -> RunConfig:
    return RunConfig(
        machine=machine or MachineConfig(p=p),
        software=SoftwareConfig(sync_path=path),
        seed=5,
    )


def _phase_fingerprint(run) -> tuple:
    """Every externally-observable timing of a run, exactly."""
    return tuple(
        (ph.start, ph.end, ph.comm_cycles, tuple(ph.compute_cycles)) for ph in run.phases
    ) + (run.total_cycles, run.trailing_compute_cycles)


# ----------------------------------------------------------------------
# Bit identity across both paths, all three algorithms
# ----------------------------------------------------------------------
def _zero_latency(p: int) -> MachineConfig:
    """No wire latency: a chunk arrives the instant its injection ends,
    so same-instant ties between arrivals, deliveries and node resumes
    abound."""
    return MachineConfig(p=p, network=replace(MachineConfig().network, latency_cycles=0.0))


@pytest.mark.parametrize(
    "p,machine",
    [pytest.param(p, None, id=str(p)) for p in (1, 2, 4, 8)]
    + [pytest.param(3, _zero_latency(3), id="3-zero-latency")],
)
def test_samplesort_bit_identical_on_all_paths(p, machine):
    rng = np.random.default_rng(42)
    data = rng.integers(0, 1 << 30, size=2000)
    runs = {
        path: run_sample_sort(data.copy(), config=_config(p, path, machine))
        for path in PATHS
    }
    assert _phase_fingerprint(runs["epoch"].run) == _phase_fingerprint(runs["slow"].run)
    np.testing.assert_array_equal(runs["epoch"].result, runs["slow"].result)


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_prefix_bit_identical_on_all_paths(p):
    rng = np.random.default_rng(7)
    data = rng.integers(0, 1000, size=3000)
    runs = {path: run_prefix_sums(data.copy(), config=_config(p, path)) for path in PATHS}
    assert _phase_fingerprint(runs["epoch"].run) == _phase_fingerprint(runs["slow"].run)
    np.testing.assert_array_equal(runs["epoch"].result, runs["slow"].result)


@pytest.mark.parametrize(
    "p,machine,n,list_seed,run_seed",
    [pytest.param(p, None, 1500, 3, 5, id=str(p)) for p in (1, 2, 4, 8)]
    # A queued chunk starts service in the event that frees its receive
    # engine, ahead of the same-instant events already waiting.
    + [pytest.param(12, _zero_latency(12), 1200, 520, 520, id="12-zero-latency")],
)
def test_listrank_bit_identical_on_all_paths(p, machine, n, list_seed, run_seed):
    succ = make_random_list(n, seed=list_seed)
    runs = {
        path: run_list_ranking(
            succ.copy(), config=replace(_config(p, path, machine), seed=run_seed)
        )
        for path in PATHS
    }
    assert _phase_fingerprint(runs["epoch"].run) == _phase_fingerprint(runs["slow"].run)
    np.testing.assert_array_equal(runs["epoch"].ranks, runs["slow"].ranks)


def test_epoch_does_less_kernel_work_than_oracle():
    """Same timings, fewer events: the point of the kernel."""
    rng = np.random.default_rng(0)
    data = rng.integers(0, 1 << 30, size=4000)
    epoch = run_sample_sort(data.copy(), config=_config(8, "epoch"))
    slow = run_sample_sort(data.copy(), config=_config(8, "slow"))
    assert epoch.run.sim_events < slow.run.sim_events


def test_sweep_rows_identical(monkeypatch):
    """The fig2-style sweep produces identical aggregated points."""
    import dataclasses

    from repro.experiments.sweeps import run_samplesort_sweep

    def rows(path: str):
        monkeypatch.setenv("QSM_SYNC_PATH", path)
        sweep = run_samplesort_sweep(MachineConfig(p=8), [4096, 8192], reps=2, seed=0)
        return [dataclasses.asdict(pt) for pt in sweep.points]

    assert rows("slow") == rows("epoch")


# ----------------------------------------------------------------------
# Automatic fallback when a feature needs per-message events
# ----------------------------------------------------------------------
def test_epoch_falls_back_under_network_faults():
    """A network-perturbing fault plan degrades epoch to the oracle: both
    configured paths then agree event-for-event."""
    rng = np.random.default_rng(9)
    data = rng.integers(0, 1 << 30, size=2000)
    machine = MachineConfig(p=4).with_faults(
        FaultPlan(seed=5, drop_prob=0.1, delay_jitter_cycles=200.0)
    )
    runs = {
        path: run_sample_sort(data.copy(), config=_config(4, path, machine=machine))
        for path in PATHS
    }
    assert _phase_fingerprint(runs["epoch"].run) == _phase_fingerprint(runs["slow"].run)
    assert runs["epoch"].run.sim_events == runs["slow"].run.sim_events
    np.testing.assert_array_equal(runs["epoch"].result, runs["slow"].result)


def test_epoch_falls_back_under_send_pacing():
    rng = np.random.default_rng(13)
    data = rng.integers(0, 1 << 30, size=2000)

    def run(path):
        return run_sample_sort(
            data.copy(),
            config=RunConfig(
                machine=MachineConfig(p=4),
                software=SoftwareConfig(sync_path=path, send_pacing_cycles=50.0),
                seed=5,
            ),
        )

    epoch, slow = run("epoch"), run("slow")
    assert _phase_fingerprint(epoch.run) == _phase_fingerprint(slow.run)
    assert epoch.run.sim_events == slow.run.sim_events


# ----------------------------------------------------------------------
# Config resolution: enum and env
# ----------------------------------------------------------------------
def test_sync_path_resolution_and_default(monkeypatch):
    monkeypatch.delenv("QSM_SYNC_PATH", raising=False)
    assert [path.value for path in SyncPath] == ["slow", "epoch"]
    assert SoftwareConfig().sync_path is SyncPath.EPOCH
    assert SoftwareConfig(sync_path=SyncPath.SLOW).sync_path is SyncPath.SLOW
    monkeypatch.setenv("QSM_SYNC_PATH", "slow")
    assert SoftwareConfig().sync_path is SyncPath.SLOW
    # explicit field beats the environment
    assert SoftwareConfig(sync_path="epoch").sync_path is SyncPath.EPOCH


def test_invalid_sync_path_env_raises(monkeypatch):
    monkeypatch.setenv("QSM_SYNC_PATH", "warp")
    with pytest.raises(ValueError, match="QSM_SYNC_PATH"):
        SoftwareConfig()


def test_invalid_sync_path_field_raises():
    with pytest.raises(ValueError):
        SoftwareConfig(sync_path="turbo")
    with pytest.raises(ValueError):
        SoftwareConfig(sync_path="fast")


# ----------------------------------------------------------------------
# Experiment pipelines: identical figure data on every path
# ----------------------------------------------------------------------
def _cli_figure_data(fig, tmp_path, monkeypatch, path):
    import json

    from repro.experiments.cli import main

    monkeypatch.setenv("QSM_SYNC_PATH", path)
    out = tmp_path / f"{fig}_{path}.json"
    assert main(["run", fig, "--fast", "--json", str(out)]) == 0
    return json.loads(out.read_text())["data"]


@pytest.mark.parametrize("fig", ["fig1", "fig2", "fig3", "fig8"])
def test_cli_figures_identical_across_paths(fig, tmp_path, monkeypatch):
    datasets = [_cli_figure_data(fig, tmp_path, monkeypatch, path) for path in PATHS]
    assert datasets[0] == datasets[1]


def test_cli_sync_path_flag(tmp_path, monkeypatch, capsys):
    """`--sync-path` selects the path for the whole run (and its --jobs
    workers, via the environment) and restores the environment after;
    the deleted 'fast' path is a usage error naming the valid ones."""
    import json
    import os

    from repro.experiments.cli import main

    monkeypatch.delenv("QSM_SYNC_PATH", raising=False)
    results = {}
    for path in PATHS:
        out = tmp_path / f"flag_{path}.json"
        assert main(["run", "fig1", "--fast", "--json", str(out), "--sync-path", path]) == 0
        assert "QSM_SYNC_PATH" not in os.environ, "flag leaked into the environment"
        results[path] = json.loads(out.read_text())["data"]
    assert results["slow"] == results["epoch"]

    with pytest.raises(SystemExit) as exc:
        main(["run", "fig1", "--fast", "--sync-path", "fast"])
    assert exc.value.code == 2
    assert "'slow', 'epoch'" in capsys.readouterr().err
