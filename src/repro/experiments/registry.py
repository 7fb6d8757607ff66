"""Registry mapping experiment ids to runners."""

from __future__ import annotations

import inspect
from typing import Callable, Dict

from repro.experiments import (
    fig1_prefix,
    fig2_samplesort,
    fig3_listrank,
    fig4_latency_sweep,
    fig5_latency_crossover,
    fig6_overhead_crossover,
    fig7_membank,
    fig8_topology,
    table1_contract,
    table2_node,
    table3_observed,
    table4_extrapolation,
)
from repro.experiments.base import ExperimentResult

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1_contract.run,
    "table2": table2_node.run,
    "table3": table3_observed.run,
    "table4": table4_extrapolation.run,
    "fig1": fig1_prefix.run,
    "fig2": fig2_samplesort.run,
    "fig3": fig3_listrank.run,
    "fig4": fig4_latency_sweep.run,
    "fig5": fig5_latency_crossover.run,
    "fig6": fig6_overhead_crossover.run,
    "fig7": fig7_membank.run,
    "fig8": fig8_topology.run,
}

#: Experiments whose prediction lines price the runs they measure: the
#: only ones that can evaluate ``observed``-scenario models.
MEASURED_RUN_EXPERIMENTS = ("fig1", "fig2", "fig3")


def get_experiment(exp_id: str) -> Callable[..., ExperimentResult]:
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {', '.join(sorted(EXPERIMENTS))}"
        ) from None


def accepts_keyword(runner: Callable[..., ExperimentResult], keyword: str) -> bool:
    """Whether *runner* takes *keyword* (experiments declare only the
    knobs that apply: tables take no ``jobs``, sweeps no ``ns``, ...)."""
    try:
        return keyword in inspect.signature(runner).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False


def accepts_jobs(runner: Callable[..., ExperimentResult]) -> bool:
    """Whether *runner* takes a ``jobs=`` keyword (only sweep-heavy
    experiments are parallelised; the cheap tables are not)."""
    return accepts_keyword(runner, "jobs")


def run_experiment(
    exp_id: str,
    fast: bool = False,
    seed: int = 0,
    jobs: int = 1,
    models=None,
    ns=None,
    topology=None,
) -> ExperimentResult:
    """Run one experiment, forwarding only the knobs its runner declares.

    ``models`` (registered prediction-model names), ``ns`` (problem
    sizes) and ``topology`` (a parsed
    :class:`~repro.machine.config.Topology`) are optional overrides;
    experiments without prediction lines, an n grid or a topology knob
    silently ignore them, so ``all --models ... --topology ...`` works.
    """
    runner = get_experiment(exp_id)
    kwargs = {"fast": fast, "seed": seed}
    if jobs != 1 and accepts_jobs(runner):
        kwargs["jobs"] = jobs
    if models is not None and accepts_keyword(runner, "models"):
        kwargs["models"] = models
    if ns is not None and accepts_keyword(runner, "ns"):
        kwargs["ns"] = list(ns)
    if topology is not None and accepts_keyword(runner, "topology"):
        kwargs["topology"] = topology
    return runner(**kwargs)
