"""Shared sample-sort sweep machinery for Figures 4–6 and Table 4.

Each sweep point runs the sample sort benchmark on a machine whose
hardware latency ``l`` or per-message overhead ``o`` is overridden,
keeping everything else at the Table 2/3 defaults — exactly the §3.3
methodology ("we vary l, the hardware latency, over a range of values
and compare the measured performance against QSM's predictions").
Neither parameter changes what the program does, only what its
exchanges cost, so a process runs each (n, seed) program once and
prices it on every machine (:func:`sample_sort_run`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.samplesort import run_sample_sort
from repro.analysis.crossover import DEFAULT_BAND, band_crossover_from_predictions
from repro.experiments.base import mean_std_robust
from repro.experiments.executor import parallel_map, recorded_run
from repro.machine.config import MachineConfig
from repro.predict import get_model, make_source, predict_point, resolve_models
from repro.qsmlib import QSMMachine, RunConfig, RunResult, price_run
from repro.store import live_size

FULL_SWEEP_NS = [4096, 8192, 16384, 32768, 65536, 125000, 250000, 500000]
FAST_SWEEP_NS = [4096, 16384, 65536, 250000]

#: Hardware latencies swept in Figure 4/5 (default is 1600).
FULL_LS = [400.0, 1600.0, 6400.0, 25600.0, 102400.0]
FAST_LS = [400.0, 6400.0, 102400.0]

#: Per-message overheads swept in Figure 6 (default is 400).
FULL_OS = [100.0, 400.0, 1600.0, 6400.0, 25600.0]
FAST_OS = [100.0, 1600.0, 25600.0]


@dataclass
class SweepPoint:
    """Aggregated measurements for one (machine, n) grid point."""

    n: int
    comm_mean: float
    comm_std: float


@dataclass
class SampleSortSweep:
    """Measured comm-vs-n curve for one machine configuration, plus one
    n-independent-of-measurement prediction line per registry model."""

    machine: MachineConfig
    points: List[SweepPoint]
    predictions: Dict[str, List[float]] = field(default_factory=dict)
    band: Tuple[str, str] = DEFAULT_BAND

    @property
    def ns(self) -> List[int]:
        return [pt.n for pt in self.points]

    @property
    def measured(self) -> List[float]:
        return [pt.comm_mean for pt in self.points]

    @property
    def best_case(self) -> List[float]:
        """The band's lower prediction line (default ``qsm-best``)."""
        return self.predictions[self.band[0]]

    @property
    def whp_bound(self) -> List[float]:
        """The band's upper prediction line (default ``qsm-whp``)."""
        return self.predictions[self.band[1]]

    def crossover_n(self) -> Optional[float]:
        """Problem size where measured falls inside the prediction band."""
        return band_crossover_from_predictions(
            self.ns, self.measured, self.predictions, band=self.band
        )

    def band_exceedance(self) -> Optional[float]:
        """Worst measured/upper-band ratio across the sweep.

        1.0 means every point sits at or inside the QSM whp bound;
        above 1.0 quantifies how far the measurements were pushed out
        of the prediction band — the headline number for fault-injected
        fig4/fig5 runs, where injected ``l``/``o`` perturbations (drops,
        jitter, retransmit traffic) act on the machine but not on the
        model.  ``None`` when every point of the sweep failed.
        """
        upper = self.whp_bound
        ratios = [
            m / u
            for m, u in zip(self.measured, upper)
            if np.isfinite(m) and u > 0
        ]
        return max(ratios) if ratios else None


def band_exceedances(
    sweeps: Dict[float, "SampleSortSweep"], param: str
) -> Tuple[Dict[str, Optional[float]], str]:
    """Per-sweep :meth:`SampleSortSweep.band_exceedance`, plus a one-line
    rendering for fault-injected runs (how far the injected ``l``/``o``
    perturbations pushed measurements out of the QSM prediction band)."""
    exceed = {
        f"{param}={key:g}": sweeps[key].band_exceedance() for key in sorted(sweeps)
    }
    rendered = ", ".join(
        f"{k}: {v:.2f}x" if v is not None else f"{k}: n/a" for k, v in exceed.items()
    )
    return exceed, f"fault-injected band exceedance (max measured/whp): {rendered}"


def sample_sort_run(machine: MachineConfig, n: int, run_seed: int) -> RunResult:
    """The run of one sample-sort point: *n* keys drawn from *run_seed*,
    sorted on *machine*.

    The program's half of the run depends on *n* and the config's
    :meth:`~repro.qsmlib.RunConfig.recorded` part (which carries the
    seed) alone.  When this process has already run the program for
    another machine, and the point cache's memory tier is active
    (:func:`~repro.experiments.executor.recorded_run`), the recorded
    run is priced on this one (:func:`~repro.qsmlib.price_run`) instead
    of run again; the result is the same.  The memory tier keeps the
    recorded run itself, charged by the arrays it holds, so the result
    is always a copy with its own records and lists, whose arrays are
    read-only.
    """
    config = RunConfig(machine=machine, seed=run_seed, check_semantics=False)

    def record():
        rng = np.random.default_rng(run_seed)
        out = run_sample_sort(rng.integers(0, 2**62, size=n), config)
        run = out.run.freeze_arrays()
        size = live_size(itertools.chain(run.arrays(), out.traffic.layout.arrays()))
        return (run, out.traffic), size

    (run, traffic), ran = recorded_run("sample_sort", (n, config.recorded()), record)
    return run.shallow_copy() if ran else price_run(run, traffic, config)


def _sweep_point_task(task) -> float:
    """Worker for one (machine, n, run_seed) grid point.

    Module-level so it pickles for the process pool; the task tuple
    carries the derived seed, making output independent of which worker
    (or which process) runs the point.
    """
    return sample_sort_run(*task).comm_cycles


def _point_tasks(machine: MachineConfig, ns: Sequence[int], reps: int, seed: int) -> List[tuple]:
    """All (machine, n, run_seed) tasks of one sweep, in canonical order."""
    return [(machine, n, seed + 1000 * r + 1) for n in ns for r in range(reps)]


def _sweep_models(models) -> List[str]:
    """Validated model list for a sweep: the band plus extra analytic names.

    Sweeps keep only aggregated means, so observed-scenario models (which
    need per-run skews) cannot be priced here and are rejected loudly.
    """
    names = resolve_models(models, default=DEFAULT_BAND)
    for name in list(DEFAULT_BAND):
        if name not in names:
            names.append(name)
    observed = [n for n in names if get_model(n).scenario == "observed"]
    if observed:
        raise ValueError(
            f"sweep experiments cannot price observed-scenario models "
            f"{observed}; they need per-run skews (use fig2/fig3 for those)"
        )
    return names


def _assemble_sweep(
    machine: MachineConfig,
    ns: Sequence[int],
    reps: int,
    comms_flat: Sequence[float],
    seed: int,
    models: Optional[Sequence[str]] = None,
) -> SampleSortSweep:
    """Fold flat per-point measurements back into a SampleSortSweep."""
    probe = QSMMachine(RunConfig(machine=machine, seed=seed))
    costs = probe.cost_model()
    source = make_source("samplesort", p=machine.p, cpu=probe.machine.cpus[0])
    model_names = _sweep_models(models)

    points: List[SweepPoint] = []
    predictions: Dict[str, List[float]] = {name: [] for name in model_names}
    for i, n in enumerate(ns):
        comms = list(comms_flat[i * reps : (i + 1) * reps])
        cm, cs = mean_std_robust(comms)
        points.append(SweepPoint(n=n, comm_mean=cm, comm_std=cs))
        for rec in predict_point(source, model_names, costs, n=n):
            predictions[rec.model].append(rec.comm_cycles)
    return SampleSortSweep(machine=machine, points=points, predictions=predictions)


def run_samplesort_sweep(
    machine: MachineConfig,
    ns: Sequence[int],
    reps: int,
    seed: int = 0,
    jobs: int = 1,
    models: Optional[Sequence[str]] = None,
) -> SampleSortSweep:
    """Measure sample-sort communication over the n grid on *machine*."""
    ns = list(ns)
    comms = parallel_map(_sweep_point_task, _point_tasks(machine, ns, reps, seed), jobs=jobs)
    return _assemble_sweep(machine, ns, reps, comms, seed, models=models)


def _machine_sweeps(
    machines: List[MachineConfig],
    keys: Sequence[float],
    ns: Sequence[int],
    reps: int,
    seed: int,
    jobs: int,
    models: Optional[Sequence[str]] = None,
) -> Dict[float, SampleSortSweep]:
    """Run one sweep per machine, flattening all points into one pool."""
    ns = list(ns)
    tasks = [t for m in machines for t in _point_tasks(m, ns, reps, seed)]
    comms = parallel_map(_sweep_point_task, tasks, jobs=jobs)
    per = len(ns) * reps
    return {
        key: _assemble_sweep(m, ns, reps, comms[i * per : (i + 1) * per], seed, models=models)
        for i, (key, m) in enumerate(zip(keys, machines))
    }


def latency_sweeps(
    ls: Sequence[float],
    ns: Sequence[int],
    reps: int,
    seed: int = 0,
    jobs: int = 1,
    models: Optional[Sequence[str]] = None,
) -> Dict[float, SampleSortSweep]:
    """One sweep per hardware latency value (Figures 4 and 5)."""
    base = MachineConfig()
    machines = [base.with_network(latency_cycles=l) for l in ls]
    return _machine_sweeps(machines, list(ls), ns, reps, seed, jobs, models=models)


def overhead_sweeps(
    os_: Sequence[float],
    ns: Sequence[int],
    reps: int,
    seed: int = 0,
    jobs: int = 1,
    models: Optional[Sequence[str]] = None,
) -> Dict[float, SampleSortSweep]:
    """One sweep per per-message overhead value (Figure 6)."""
    base = MachineConfig()
    machines = [base.with_network(overhead_cycles=o) for o in os_]
    return _machine_sweeps(machines, list(os_), ns, reps, seed, jobs, models=models)
